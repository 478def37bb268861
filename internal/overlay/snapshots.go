package overlay

import (
	"whatsup/internal/news"
	"whatsup/internal/profile"
)

// snapshotKey is the (node, stamp) a descriptor generation travels under. It
// is a lookup key, not an identity: two descriptors can share it and differ
// in content, which is why a table hit is only ever a candidate.
type snapshotKey struct {
	node  news.NodeID
	stamp int64
}

// SnapshotTable is a decoder's memory of the profile snapshots it has built,
// for a receiver that decodes the same circulating descriptors many times
// over (one destination shard of the sharded simulator). Lists decoded
// through AppendDecode share a held snapshot's pointer instead of building
// an equal one: what the serial engine gets for free by passing descriptors
// around in memory.
//
// The table has two generations. A lookup tries the current one, then the
// previous one, promoting a hit; Rotate retires the previous generation. A
// snapshot nothing decodes for two rotations is forgotten, so the table pins
// at most that much beyond what the views themselves hold. The zero value is
// ready to use; a table is not goroutine-safe.
type SnapshotTable struct {
	cur, prev map[snapshotKey]*profile.Packed
	// pending is the packed profile of each descriptor of the list being
	// decoded, as read and aliasing the input, until its sidecar pair is
	// known.
	pending []profile.Packed

	// Shared counts descriptors whose profile was a held snapshot's pointer,
	// Decoded those that got a snapshot built (a first sighting, or a
	// different content or accumulator pair under a held key).
	Shared, Decoded int64
}

// held returns the snapshot held for exactly (node, stamp), promoting one
// found in the previous generation.
func (t *SnapshotTable) held(k snapshotKey) *profile.Packed {
	p, ok := t.cur[k]
	if !ok {
		if p, ok = t.prev[k]; ok {
			t.keep(k, p)
		}
	}
	return p
}

func (t *SnapshotTable) keep(k snapshotKey, p *profile.Packed) {
	if t.cur == nil {
		t.cur = make(map[snapshotKey]*profile.Packed)
	}
	t.cur[k] = p
}

// AppendDecode decodes a descriptor list followed by its norm-accumulator
// sidecar (AppendDescriptors then AppendNormAccumulators) by appending onto
// dst, with AppendDecodeDescriptors' arena contract. Every byte is walked and
// validated as a plain decode would, and each profile gets the sidecar's
// pair, as with DecodeNormAccumulators; the result differs only in which
// equal snapshots are the same pointer. A held snapshot is shared when it is
// Equal to the one decoded — bytes and pair — and a first sighting under its
// (node, stamp) is kept for later lists to share.
func (t *SnapshotTable) AppendDecode(dst []Descriptor, data []byte) ([]Descriptor, []byte, error) {
	from := len(dst)
	t.pending = t.pending[:0]
	rest, err := decodeDescriptors(&dst, data, nil, &t.pending)
	if err == nil {
		rest, err = t.resolve(rest, dst[from:])
	}
	clear(t.pending) // drop the aliases of data
	if err != nil {
		return dst, data, err
	}
	return dst, rest, nil
}

// resolve reads the sidecar of a list whose packed profiles are pending and
// gives each descriptor its snapshot: the held one when Equal, a fresh copy
// otherwise.
func (t *SnapshotTable) resolve(data []byte, descs []Descriptor) ([]byte, error) {
	rest := data
	for i := range descs {
		read := &t.pending[i]
		if read.WireSize() == 0 {
			continue // no profile on the wire
		}
		sumSq, dirty, r, err := decodeNormAccumulator(rest)
		if err != nil {
			return data, err
		}
		rest = r
		pk := read.WithAccumulator(sumSq, dirty)
		d := &descs[i]
		k := snapshotKey{d.Node, d.Stamp}
		held := t.held(k)
		if held != nil && held.Equal(&pk) {
			d.Profile = held
			t.Shared++
			continue
		}
		d.Profile = pk.Clone()
		if held == nil {
			t.keep(k, d.Profile)
		}
		t.Decoded++
	}
	return rest, nil
}

// Rotate starts a new generation: the current one becomes the previous, and
// what was the previous is forgotten (its storage is kept for reuse).
func (t *SnapshotTable) Rotate() {
	t.cur, t.prev = t.prev, t.cur
	clear(t.cur)
}
