package core

import (
	"math/rand"
	"slices"

	"whatsup/internal/cluster"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// Node is a WhatsUp peer: the gossip Substrate plus the BEEP dissemination
// policy (Publish, Receive and the forwarding rule) and the Section II-D
// cold start. Its SIR set is the substrate's (Infect, Seen): it holds the
// items of the last profile window, so a node's memory is bounded by the
// window, not its uptime. Node methods are not goroutine-safe; engines
// serialize access per node.
type Node struct {
	Substrate
	opinions Opinions
}

// NewNode builds a WhatsUp node. The string parameter is ignored:
// descriptors carry no address. opinions supplies the user's
// like/dislike reactions; rng seeds the node's own generator and is not
// retained (see NewSubstrate).
func NewNode(id news.NodeID, _ string, cfg Config, opinions Opinions, rng *rand.Rand) *Node {
	return &Node{
		Substrate: NewSubstrate(id, cfg.WithDefaults(), rng),
		opinions:  opinions,
	}
}

// coldStartRatings is the number of popular items a joining node rates to
// build its initial profile (Section II-D fixes it at 3).
const coldStartRatings = 3

// ColdStart implements the joining procedure of Section II-D: the node
// inherits the RPS and WUP views of a random contact and builds a fresh
// profile by liking the most popular items found in the inherited RPS view.
func (n *Node) ColdStart(inheritedRPS, inheritedWUP []overlay.Descriptor, now int64) {
	n.rps.Seed(inheritedRPS)
	popular := profile.MostPopular(n.rps.View().Profiles(), coldStartRatings)
	for _, id := range popular {
		n.user.Set(id, now, 1)
	}
	n.wup.Seed(inheritedWUP, n.user)
}

// Publish creates a news item at this node (generateNewsItem, Algorithm 1
// lines 12-17) and returns the sends BEEP produces: AppendPublish into a new
// slice. It is the form sim.Peer declares, which a peer that wraps a node
// implements to observe the call.
func (n *Node) Publish(item news.Item, now int64) []Send {
	return n.AppendPublish(nil, item, now)
}

// AppendPublish creates a news item at this node (generateNewsItem,
// Algorithm 1 lines 12-17): the source likes its own item, initializes the
// item profile from its user profile, and hands the item to BEEP as a liked
// item. It appends the sends to sends, a buffer the caller owns, and returns
// the extended slice.
func (n *Node) AppendPublish(sends []Send, item news.Item, now int64) []Send {
	if !n.Infect(item, now) {
		return sends
	}
	n.user.Set(item.ID, item.Created, 1) // line 14: add <idI, tI, 1> to P̃
	// Lines 15-16: the fresh item profile is the user profile folded into an
	// empty one, a copy with an entry array of its own.
	itemProfile := profile.New()
	itemProfile.MergeAverage(n.user)
	msg := ItemMessage{Item: item, Profile: itemProfile, Dislikes: 0, Hops: 0}
	return n.forward(sends, msg, true, now)
}

// Receive processes an incoming item and returns the delivery record and the
// sends BEEP produces: AppendReceive into a new slice, the liker's fold into
// a new profile. Like Publish, it is the form sim.Peer declares.
func (n *Node) Receive(msg ItemMessage, now int64) (Delivery, []Send) {
	return n.AppendReceive(nil, nil, msg, now)
}

// AppendReceive processes an incoming item (Algorithm 1 lines 1-11 followed
// by Algorithm 2). It returns the delivery record, and appends the sends
// BEEP produces to sends, a buffer the caller owns, returning the extended
// slice. Duplicate receipts are dropped per the SIR model (Section III), and
// so is an item older than the profile window: the node may have forgotten
// it, and lines 8-10 would purge it from every profile. A dropped item is
// delivered, recorded and forwarded nowhere.
//
// AppendReceive never writes msg.Profile, which the sender handed to every
// path (each path's copy of II-B is made by a receiver that changes it). A
// liker folds into fold when the caller supplies one — scratch it owns,
// which must be neither msg.Profile nor shared — and into a new profile
// otherwise; the sends carry that profile, so a caller that supplies fold
// must be done with them (encoded or copied) before it reuses it. A disliker
// purges a new copy only if an entry is stale.
//
//whatsup:hotpath
func (n *Node) AppendReceive(sends []Send, fold *profile.Profile, msg ItemMessage, now int64) (Delivery, []Send) {
	d := Delivery{
		Node:       n.id,
		Item:       msg.Item.ID,
		Hops:       msg.Hops,
		Dislikes:   msg.Dislikes,
		ViaDislike: msg.ViaDislike,
	}
	if !n.Infect(msg.Item, now) {
		d.Duplicate = true
		return d, sends
	}

	liked := n.opinions.Likes(n.id, msg.Item.ID)
	if n.behavior != nil {
		liked = n.behavior.React(msg.Item, liked)
	}
	d.Liked = liked
	minStamp := now - n.cfg.ProfileWindow // lines 8-10: the item profile's window
	if liked {
		// Lines 3-4: aggregate the user profile as it was *before* rating
		// this item into the item profile (one sorted merge), purge it, then
		// line 5: record the like.
		if fold != nil {
			fold.Fold(msg.Profile, n.user, minStamp)
			msg.Profile = fold
		} else {
			msg.Profile = msg.Profile.Merged(n.user)
			msg.Profile.PurgeOlderThan(minStamp)
		}
		n.user.Set(msg.Item.ID, msg.Item.Created, 1)
	} else {
		// Line 7: record the dislike; the item profile is only purged.
		n.user.Set(msg.Item.ID, msg.Item.Created, 0)
		msg.Profile = msg.Profile.Windowed(minStamp)
	}

	return d, n.forward(sends, msg, liked, now)
}

// forward implements BEEP (Algorithm 2), appending its sends to sends. For a
// liked item it amplifies: fLIKE targets picked at random from the WUP view
// (orientation towards the social network, randomness against
// over-clustering). For a disliked item it forwards a single copy to the RPS
// neighbour whose profile is most similar to the *item profile*, while the
// dislike counter is below the TTL (orientation towards potential likers,
// serendipity with fanout 1).
//
//whatsup:hotpath
func (n *Node) forward(sends []Send, msg ItemMessage, liked bool, now int64) []Send {
	if n.behavior != nil {
		msg = n.behavior.OutgoingItem(msg)
	}
	msg.Hops++
	msg.ViaDislike = !liked
	if !liked {
		if msg.Dislikes >= n.cfg.DislikeTTL {
			return sends // line 29: TTL reached, drop
		}
		msg.Dislikes++ // line 26
		t, ok := n.rps.View().MostSimilar(n.cfg.Metric, msg.Profile)
		if !ok {
			return sends
		}
		return append(sends, Send{To: t.Node, Msg: msg}) // line 27 //whatsup:alloc only while the caller's buffer grows
	}
	k, lo := min(n.cfg.FLike, n.wup.View().Len()), len(sends)
	if k == 0 {
		return sends
	}
	sends = slices.Grow(sends, k)[:lo+k] //whatsup:alloc only while the caller's buffer grows
	drawn := sends[lo:]
	cluster.RandomTargets(n.wup, drawn, addressTo) // line 31
	for i := range drawn {
		drawn[i].Msg = msg
	}
	return sends
}

// addressTo is forward's put for cluster.RandomTargets: it addresses a send
// to the drawn view member.
func addressTo(s *Send, d overlay.Descriptor) { s.To = d.Node }
