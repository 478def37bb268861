package baselines

import (
	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// RunCascade evaluates explicit social cascading (Section IV-B, Table V):
// whenever a node likes an item, it forwards it to all of its explicit
// social out-neighbours, as in Digg or Twitter; dislikers take no action.
// The dissemination is a breadth-first traversal of the follower graph
// gated by opinions. Each forwarded copy is one message.
//
// The dataset must carry a social graph (the Digg workload).
func RunCascade(ds *dataset.Dataset, col *metrics.Collector) {
	sim.DatasetWorld(ds).Register(col)
	for i := range ds.Items {
		it := ds.Items[i]
		src := it.News.Source
		if src == news.NoNode {
			continue
		}
		type wave struct {
			node news.NodeID
			hops int
		}
		seen := map[news.NodeID]bool{src: true}
		// The source likes its own item and cascades it.
		col.RecordDelivery(core.Delivery{Node: src, Item: it.News.ID, Liked: true, Hops: 0})
		frontier := []wave{}
		forwardFrom := func(u news.NodeID, hops int) {
			neighbours := ds.Social[u]
			if len(neighbours) == 0 {
				return
			}
			col.RecordForward(true, hops)
			for _, v := range neighbours {
				col.RecordMessage(metrics.MsgBeep, it.News.WireSize())
				frontier = append(frontier, wave{node: v, hops: hops + 1})
			}
		}
		forwardFrom(src, 0)
		for len(frontier) > 0 {
			w := frontier[0]
			frontier = frontier[1:]
			if seen[w.node] {
				continue
			}
			seen[w.node] = true
			liked := ds.Likes(w.node, it.News.ID)
			col.RecordDelivery(core.Delivery{
				Node: w.node, Item: it.News.ID, Liked: liked, Hops: w.hops,
			})
			if liked {
				forwardFrom(w.node, w.hops)
			}
		}
	}
}
