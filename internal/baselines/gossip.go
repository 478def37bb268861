// Package baselines implements the competitors of the evaluation
// (paper Section IV-B): standard homogeneous gossip, decentralized
// collaborative filtering with either metric (CF-WUP / CF-Cos), explicit
// cascading over a social graph, the ideal centralized topic-based
// publish/subscribe system (C-Pub/Sub), and the centralized variant of
// WhatsUp with global knowledge (C-WhatsUp).
//
// Gossip and CF embed the same core.Substrate as WhatsUp — the paper defines
// CF as running "the same" two-layer substrate with a different forwarding
// rule — and add only Publish, Receive and that rule, so the same engine
// drives them. Both take the substrate's SIR rule too (core.Substrate.Infect):
// CF's set is bounded by its profile window like WhatsUp's, while Gossip,
// whose substrate has no window, never forgets an item. Cascading, C-Pub/Sub
// and C-WhatsUp are centralized computations that feed the same metrics
// collector.
package baselines

import (
	"math/rand"

	"whatsup/internal/core"
	"whatsup/internal/news"
)

// Gossip is a standard homogeneous SIR gossip peer (Table III, row
// "Gossip"): on first receipt of an item it forwards it to Fanout random
// members of its RPS view, regardless of the user's opinion. Its substrate
// has no clustering layer and no profile window, and it keeps no item
// profiles. Opinions are still recorded so precision can be measured.
type Gossip struct {
	core.Substrate
	fanout   int
	opinions core.Opinions
}

// NewGossip builds a homogeneous gossip peer with the given fanout. Of cfg it
// takes only RPSvs, with core.Config's default: the substrate has no
// clustering layer and no profile window.
func NewGossip(id news.NodeID, fanout int, cfg core.Config, opinions core.Opinions, rng *rand.Rand) *Gossip {
	return &Gossip{
		Substrate: core.NewSubstrate(id, core.Config{RPSViewSize: cfg.WithDefaults().RPSViewSize}, rng),
		fanout:    fanout,
		opinions:  opinions,
	}
}

// Publish implements sim.Peer: infect-and-forward like any other receipt.
func (g *Gossip) Publish(item news.Item, now int64) []core.Send {
	if !g.Infect(item, now) {
		return nil
	}
	g.UserProfile().Set(item.ID, item.Created, 1)
	return g.spread(item, 1)
}

// Receive implements sim.Peer: SIR with homogeneous fanout and uniform
// random targets; the user's opinion influences nothing but the records.
func (g *Gossip) Receive(msg core.ItemMessage, now int64) (core.Delivery, []core.Send) {
	d := core.Delivery{Node: g.ID(), Item: msg.Item.ID, Hops: msg.Hops}
	if !g.Infect(msg.Item, now) {
		d.Duplicate = true
		return d, nil
	}
	liked := g.opinions.Likes(g.ID(), msg.Item.ID)
	if b := g.Behavior(); b != nil {
		liked = b.React(msg.Item, liked)
	}
	d.Liked = liked
	score := 0.0
	if liked {
		score = 1
	}
	g.UserProfile().Set(msg.Item.ID, msg.Item.Created, score)
	return d, g.spread(msg.Item, msg.Hops+1)
}

func (g *Gossip) spread(item news.Item, hops int) []core.Send {
	targets := g.RPS().View().RandomSample(g.Rand(), g.fanout)
	if len(targets) == 0 {
		return nil
	}
	sends := make([]core.Send, 0, len(targets))
	for _, t := range targets {
		sends = append(sends, core.Send{
			To:  t.Node,
			Msg: core.ItemMessage{Item: item, Hops: hops},
		})
	}
	return sends
}
