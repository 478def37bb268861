package baselines

import (
	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// RunPubSub evaluates C-Pub/Sub, the ideal centralized topic-based
// publish/subscribe system (Section IV-B, Table V): users explicitly
// subscribe to the topics of the items they like (at least one liked item of
// a topic ⇒ subscribed), and every published item is delivered to all
// subscribers of its topic along a spanning tree touching all and only the
// subscribers. Recall is 1 by construction; precision is limited by topic
// granularity; the message count is minimal (one tree edge per subscriber).
func RunPubSub(ds *dataset.Dataset, col *metrics.Collector) {
	sim.DatasetWorld(ds).Register(col)
	// Precompute subscriber sets per topic.
	subscribers := make(map[int][]news.NodeID, ds.Topics)
	for t := 0; t < ds.Topics; t++ {
		subscribers[t] = ds.Subscribers(t)
	}
	for i := range ds.Items {
		it := ds.Items[i]
		subs := subscribers[ds.Topic(i)]
		for _, u := range subs {
			// One spanning-tree edge per subscriber beyond the root.
			if u != it.News.Source {
				col.RecordMessage(metrics.MsgBeep, it.News.WireSize())
			}
			col.RecordDelivery(core.Delivery{
				Node:  u,
				Item:  it.News.ID,
				Liked: ds.Likes(u, it.News.ID),
				Hops:  1, // tree depth is not modelled; pub/sub is one logical hop
			})
		}
	}
}
