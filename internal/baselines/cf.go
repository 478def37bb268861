package baselines

import (
	"math/rand"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
)

// CF is a decentralized collaborative-filtering peer based on the
// nearest-neighbour technique (Section IV-B): it maintains its k closest
// neighbours with the same two-layer gossip substrate as WhatsUp, and when
// it *likes* an item it forwards it to all k of them. It takes no action on
// disliked items and does not use item profiles — that is precisely the
// orientation and amplification machinery of BEEP it lacks.
//
// With metric profile.WUP it is the paper's CF-WUP; with profile.Cosine it
// is CF-Cos.
type CF struct {
	core.Substrate
	opinions core.Opinions
}

// NewCF builds a decentralized CF peer keeping the k most similar
// neighbours. cfg supplies RPSvs, the profile window and the metric, with
// core.Config's defaults; its WUP view is k wide, and BEEP's fields go
// unused.
func NewCF(id news.NodeID, k int, cfg core.Config, opinions core.Opinions, rng *rand.Rand) *CF {
	cfg = cfg.WithDefaults()
	cfg.WUPViewSize = k
	return &CF{
		Substrate: core.NewSubstrate(id, cfg, rng),
		opinions:  opinions,
	}
}

// Publish implements sim.Peer: the source likes its item and forwards it to
// all k neighbours.
func (c *CF) Publish(item news.Item, now int64) []core.Send {
	if !c.Infect(item, now) {
		return nil
	}
	c.UserProfile().Set(item.ID, item.Created, 1)
	return c.spread(item, 1)
}

// Receive implements sim.Peer: forward to the k closest neighbours when
// liked, drop silently when disliked.
func (c *CF) Receive(msg core.ItemMessage, now int64) (core.Delivery, []core.Send) {
	d := core.Delivery{Node: c.ID(), Item: msg.Item.ID, Hops: msg.Hops}
	if !c.Infect(msg.Item, now) {
		d.Duplicate = true
		return d, nil
	}
	liked := c.opinions.Likes(c.ID(), msg.Item.ID)
	if b := c.Behavior(); b != nil {
		liked = b.React(msg.Item, liked)
	}
	d.Liked = liked
	if !liked {
		c.UserProfile().Set(msg.Item.ID, msg.Item.Created, 0)
		return d, nil // no dislike mechanism in plain CF
	}
	c.UserProfile().Set(msg.Item.ID, msg.Item.Created, 1)
	return d, c.spread(msg.Item, msg.Hops+1)
}

func (c *CF) spread(item news.Item, hops int) []core.Send {
	view := c.WUP().View()
	if view.Len() == 0 {
		return nil
	}
	sends := make([]core.Send, 0, view.Len())
	view.ForEach(func(t overlay.Descriptor) {
		sends = append(sends, core.Send{
			To:  t.Node,
			Msg: core.ItemMessage{Item: item, Hops: hops},
		})
	})
	return sends
}
