// Package news defines news items and their identifiers as used by the
// WhatsUp dissemination substrate (paper Section II-A).
//
// A news item consists of a title, a short description and a link. The
// publishing node stamps the item with its creation time and a dislike
// counter initialised to zero. Nodes identify items by an 8-byte hash that
// is never transmitted: every node recomputes it locally from the item
// content when the item is received.
package news

import "whatsup/internal/wire"

// ID is the 8-byte identifier of a news item. It is the FNV-1a hash of the
// item content, recomputed by receivers rather than transmitted (II-A).
type ID uint64

// String renders the identifier as 16 lower-case hex digits, zero-padded, as
// fmt's %016x does: the form the API and the logs show. The digits are
// written into a fixed array, so a call makes one allocation, the string.
func (id ID) String() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i, v := len(b)-1, uint64(id); i >= 0; i, v = i-1, v>>4 {
		b[i] = digits[v&0xf]
	}
	return string(b[:])
}

// NodeID identifies a peer. The simulator uses dense indices; the live
// runtimes map NodeIDs to transport addresses.
type NodeID int32

// NoNode is the zero-ish sentinel for "no peer".
const NoNode NodeID = -1

// ValidNodeID reports whether a decoded integer is a representable node id:
// NoNode or any non-negative int32. The wire decoders share this bound so
// envelope, descriptor and item-source validation cannot drift.
func ValidNodeID(v int64) bool {
	return v >= int64(NoNode) && v <= int64(^uint32(0)>>1)
}

// Item is a news item. Topic and Community carry dataset ground truth used
// by workloads and metrics; they are not consulted by the protocols
// themselves (WhatsUp is content-agnostic).
type Item struct {
	ID          ID     // 8-byte content hash, computed via Hash
	Title       string // headline
	Description string // short description
	Link        string // link to further information
	Created     int64  // creation timestamp (gossip cycle in simulation, unix ms live)
	Source      NodeID // publishing node
	Topic       int    // dataset topic/category (ground truth, not gossiped)
	Community   int    // dataset interest community (ground truth, not gossiped)
}

// Hash computes the 8-byte identifier of an item from its content. Receivers
// call this instead of trusting a transmitted identifier, which keeps the
// wire format one hash shorter and prevents identifier spoofing.
func Hash(title, description, link string) ID { return hash(title, description, link) }

// HashBytes is Hash over content fields still sitting in a received buffer:
// the same identifier, with no string built.
func HashBytes(title, description, link []byte) ID { return hash(title, description, link) }

// FNV-1a, 64 bit (hash/fnv's parameters, inlined so hashing allocates
// nothing and runs over strings and byte slices alike).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

//whatsup:hotpath
func hash[T string | []byte](title, description, link T) ID {
	h := uint64(fnvOffset64)
	for _, s := range [...]T{title, description, link} {
		// Length-prefix each field (big-endian uint32) so ("ab","c") and
		// ("a","bc") differ.
		for shift := 24; shift >= 0; shift -= 8 {
			h = (h ^ uint64(byte(len(s)>>shift))) * fnvPrime64
		}
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
	}
	return ID(h)
}

// New constructs an item, computing its identifier from the content.
func New(title, description, link string, created int64, source NodeID) Item {
	return Item{
		ID:          Hash(title, description, link),
		Title:       title,
		Description: description,
		Link:        link,
		Created:     created,
		Source:      source,
	}
}

// WireSize returns the exact number of bytes the item occupies in a BEEP
// message: the three length-prefixed content strings plus the varint
// timestamp and source, matching byte-for-byte the item fields
// core.ItemMessage.AppendWire encodes. The ID is not counted — it is
// recomputed at the receiver, never transmitted (II-A) — and neither are
// the dataset ground-truth fields Topic and Community, which are never
// gossiped.
func (it Item) WireSize() int {
	return wire.StringLen(it.Title) + wire.StringLen(it.Description) + wire.StringLen(it.Link) +
		wire.IntLen(it.Created) + wire.IntLen(int64(it.Source))
}
