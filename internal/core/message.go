package core

import (
	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

// ItemMessage is one BEEP dissemination message: the item, the item profile
// carried along this path, and the dislike counter d_I. Hops and
// ViaDislike are measurement fields used by the evaluation (Figure 6,
// Table IV); the protocols never read them.
type ItemMessage struct {
	Item news.Item
	// Profile is the item profile P_I. It is never written once sent: a
	// forward's paths share it. A receiver that changes it builds its own
	// (Node.AppendReceive): the sim a new profile, which its hop table
	// shares across paths; live pooled scratch that lives until the frame's
	// forwards are encoded.
	Profile  *profile.Profile
	Dislikes int // dislike counter d_I
	Hops     int // hop distance from the source (instrumentation)
	// ViaDislike records whether the *sender* forwarded this copy because it
	// disliked the item (instrumentation for Figure 6).
	ViaDislike bool
}

// WireSize reports the exact on-wire size of the message for bandwidth
// accounting (Figure 8b): WireSize == len(AppendWire(nil)), computed
// without encoding. Every part shares the codec's own length helpers —
// news.Item.WireSize for the item fields, profile.WireSize for the packed
// item profile, internal/wire for the counters and flags — so the
// simulator's byte counts and the live frames cannot drift. The item id
// itself is not transmitted (II-A).
func (m ItemMessage) WireSize() int {
	size := m.Item.WireSize() +
		wire.IntLen(int64(m.Dislikes)) + wire.IntLen(int64(m.Hops)) +
		1 + // via-dislike flag, a 1-byte uvarint
		1 // profile presence flag
	if m.Profile != nil {
		size += m.Profile.WireSize()
	}
	return size
}

// Send is an outgoing BEEP message produced by a handler.
type Send struct {
	To  news.NodeID
	Msg ItemMessage
}

// Delivery reports the outcome of receiving an item at a node, consumed by
// the metrics collector.
type Delivery struct {
	Node       news.NodeID
	Item       news.ID
	Liked      bool // the receiving user's opinion
	Duplicate  bool // item already seen, or older than the profile window: dropped, nothing else recorded
	Hops       int  // hop distance from source at delivery
	Dislikes   int  // d_I when the item arrived (Table IV)
	ViaDislike bool // the copy was forwarded by a disliker (Figure 6)
}

// Opinions supplies user opinions: whether a node likes an item. Workloads
// implement it from their trace; it stands in for the like/dislike button of
// the WhatsUp user interface.
type Opinions interface {
	Likes(node news.NodeID, item news.ID) bool
}

// OpinionFunc adapts a function to the Opinions interface.
type OpinionFunc func(node news.NodeID, item news.ID) bool

// Likes implements Opinions.
func (f OpinionFunc) Likes(node news.NodeID, item news.ID) bool { return f(node, item) }
