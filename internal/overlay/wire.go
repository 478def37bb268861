package overlay

import (
	"fmt"

	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

// Descriptor wire layout, used by the live gossip envelopes:
//
//	varint  node id (zigzag; NoNode = -1 is representable)
//	byte    reserved, must be 0
//	varint  generation stamp (zigzag)
//	uint    profile presence (0 = nil, 1 = packed profile follows)
//	[profile] packed profile (profile.AppendWire layout)
//
// Descriptor lists are a uvarint count followed by that many descriptors.

// AppendDescriptor appends the wire encoding of d to buf.
func AppendDescriptor(buf []byte, d Descriptor) []byte {
	buf = wire.AppendInt(buf, int64(d.Node))
	buf = append(buf, 0) // the reserved byte
	buf = wire.AppendInt(buf, d.Stamp)
	if d.Profile == nil {
		return wire.AppendUint(buf, 0)
	}
	buf = wire.AppendUint(buf, 1)
	return d.Profile.AppendWire(buf) // the snapshot's bytes, copied
}

// Holder is the receiving end of a descriptor decode: what the receiver
// already holds, asked once per descriptor after its header and before its
// profile, so that a snapshot the receiver has is not built a second time.
// Descriptors are immutable snapshots that circulate for many cycles; most
// of what gossip carries, the receiver has seen. What the receiver does not
// hold is cloned, or, decoded against a Loan, borrowed: a decoded snapshot
// borrows the frame until the merge settles; what a view keeps is copied
// once (Loan.Settle).
type Holder interface {
	// Held reports, for the incoming descriptor (node, stamp), whether the
	// receiver would discard it whatever it carries — it is then validated
	// and left out of the decoded list — and otherwise a descriptor the
	// receiver holds for node, the zero Descriptor if none, preferring one
	// stamped stamp. The decoder reuses snap.Profile when snap.Stamp == stamp
	// and it is Equal to the snapshot decoded: the same packed bytes. The
	// comparison is not optional: (node, stamp) does not name one content.
	Held(node news.NodeID, stamp int64) (snap Descriptor, discard bool)
}

// decodeDescriptor is the one walk over the descriptor layout: it fills d —
// against what h holds, when there is an h — or only validates when h
// discards the descriptor. kept reports whether d was filled. A snapshot
// h does not hold is borrowed from l, with room for the remaining
// descriptors of the list, or cloned when l is nil.
func decodeDescriptor(d *Descriptor, data []byte, h Holder, l *Loan, remaining uint64) (rest []byte, kept bool, err error) {
	node, rest, err := wire.Int(data)
	if err != nil {
		return data, false, fmt.Errorf("descriptor node: %w", err)
	}
	if !news.ValidNodeID(node) {
		return data, false, fmt.Errorf("%w: node id %d out of range", wire.ErrMalformed, node)
	}
	switch {
	case len(rest) == 0:
		return data, false, fmt.Errorf("descriptor reserved byte: %w", wire.ErrTruncated)
	case rest[0] != 0:
		return data, false, fmt.Errorf("%w: descriptor reserved byte %#x", wire.ErrMalformed, rest[0])
	}
	stamp, rest, err := wire.Int(rest[1:])
	if err != nil {
		return data, false, fmt.Errorf("descriptor stamp: %w", err)
	}
	present, rest, err := wire.Uint(rest)
	if err != nil {
		return data, false, fmt.Errorf("descriptor profile flag: %w", err)
	}
	if present > 1 {
		return data, false, fmt.Errorf("%w: profile presence flag %d", wire.ErrMalformed, present)
	}
	var snap Descriptor
	var discard bool
	if h != nil {
		snap, discard = h.Held(news.NodeID(node), stamp)
	}
	var pk profile.Packed
	if present == 1 {
		if pk, rest, err = profile.DecodePacked(rest); err != nil {
			return data, false, err
		}
	}
	if discard {
		return rest, false, nil
	}
	switch {
	case present == 0:
	case snap.Stamp == stamp && snap.Profile != nil && snap.Profile.Equal(&pk):
		d.Profile = snap.Profile
	case l != nil:
		d.Profile = l.lend(pk, remaining)
	default:
		d.Profile = pk.Clone()
	}
	d.Node, d.Stamp = news.NodeID(node), stamp
	return rest, true, nil
}

// AppendDescriptors appends a uvarint-counted descriptor list.
func AppendDescriptors(buf []byte, descs []Descriptor) []byte {
	buf = wire.AppendUint(buf, uint64(len(descs)))
	for _, d := range descs {
		buf = AppendDescriptor(buf, d)
	}
	return buf
}

// Tombstone wire layout (departure notices piggybacked on live envelopes):
//
//	varint  node id (zigzag)
//	varint  departure stamp (zigzag)
//
// Tombstone lists are a uvarint count followed by that many tombstones.

// AppendTombstones appends a uvarint-counted tombstone list.
func AppendTombstones(buf []byte, tombs []Tombstone) []byte {
	buf = wire.AppendUint(buf, uint64(len(tombs)))
	for _, t := range tombs {
		buf = wire.AppendInt(buf, int64(t.Node))
		buf = wire.AppendInt(buf, t.Stamp)
	}
	return buf
}

// AppendDecodeTombstones decodes a uvarint-counted tombstone list by
// appending onto dst, with the same relocation caveat as
// AppendDecodeDescriptors. A nil dst is sized once from the declared count,
// and stays nil for an empty list, matching what gossip senders produce.
func AppendDecodeTombstones(dst []Tombstone, data []byte) ([]Tombstone, []byte, error) {
	n, rest, err := wire.Uint(data)
	if err != nil {
		return dst, data, fmt.Errorf("tombstone count: %w", err)
	}
	// A tombstone is at least 2 bytes (node, stamp): bound the count by the
	// bytes on hand before allocating.
	if n > uint64(len(rest))/2 {
		return dst, data, fmt.Errorf("%w: %d tombstones declared, %d bytes remain", wire.ErrTruncated, n, len(rest))
	}
	if dst == nil && n > 0 {
		dst = make([]Tombstone, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		node, r, err := wire.Int(rest)
		if err != nil {
			return dst, data, fmt.Errorf("tombstone %d node: %w", i, err)
		}
		if !news.ValidNodeID(node) {
			return dst, data, fmt.Errorf("%w: tombstone node id %d out of range", wire.ErrMalformed, node)
		}
		stamp, r, err := wire.Int(r)
		if err != nil {
			return dst, data, fmt.Errorf("tombstone %d stamp: %w", i, err)
		}
		dst = append(dst, Tombstone{Node: news.NodeID(node), Stamp: stamp})
		rest = r
	}
	return dst, rest, nil
}

// TombstonesWireSize sums the wire sizes of a tombstone list, excluding the
// count prefix (the simulator accounts the prefix as part of the envelope it
// rides on only when the list is non-empty).
func TombstonesWireSize(tombs []Tombstone) int {
	total := 0
	for _, t := range tombs {
		total += t.WireSize()
	}
	return total
}

// DecodeDescriptorsHeld decodes a uvarint-counted descriptor list against
// what the receiver holds (nil h: nothing), appending onto dst what it keeps:
// descriptors h discards are validated and left out, and snapshots h holds
// are shared. The snapshots it does not hold are cloned when l is nil, and
// otherwise borrowed from l, which the decode starts over: they alias data
// until l.Settle, which the caller runs once the merges the list is bound for
// are done and before data is reused. On an error dst comes back as it was.
func DecodeDescriptorsHeld(dst []Descriptor, data []byte, h Holder, l *Loan) ([]Descriptor, []byte, error) {
	from := len(dst)
	if l != nil {
		l.slots = l.slots[:0]
	}
	rest, err := decodeDescriptors(&dst, data, h, l)
	if err != nil {
		clear(dst[from:])
		return dst[:from], data, err
	}
	return dst, rest, nil
}

// AppendDecodeDescriptors decodes a uvarint-counted descriptor list by
// appending onto dst, so batch consumers can pool one arena across many
// lists instead of allocating a slice per list. It returns the extended
// arena and the remaining bytes; the caller slices the arena by the lengths
// before and after the call (the append may relocate the backing array, so
// subslices must be taken only once all appends into the arena are done).
func AppendDecodeDescriptors(dst []Descriptor, data []byte) ([]Descriptor, []byte, error) {
	rest, err := decodeDescriptors(&dst, data, nil, nil)
	return dst, rest, err
}

// decodeDescriptors is the one walk over a descriptor list: it appends onto
// *dst what h (nil: nothing) does not discard — a nil *dst is sized on the
// first descriptor kept, from the count still to come. Snapshots are
// borrowed from l, or cloned when l is nil.
func decodeDescriptors(dst *[]Descriptor, data []byte, h Holder, l *Loan) ([]byte, error) {
	n, rest, err := wire.Uint(data)
	if err != nil {
		return data, fmt.Errorf("descriptor count: %w", err)
	}
	// A descriptor is at least 4 bytes (node, reserved, stamp, flag):
	// bound the count by the bytes on hand before allocating.
	if n > uint64(len(rest))/4 {
		return data, fmt.Errorf("%w: %d descriptors declared, %d bytes remain", wire.ErrTruncated, n, len(rest))
	}
	for i := uint64(0); i < n; i++ {
		var d Descriptor
		var kept bool
		if rest, kept, err = decodeDescriptor(&d, rest, h, l, n-i); err != nil {
			return data, fmt.Errorf("descriptor %d: %w", i, err)
		}
		if kept {
			if *dst == nil {
				*dst = make([]Descriptor, 0, n-i)
			}
			*dst = append(*dst, d)
		}
	}
	return rest, nil
}
