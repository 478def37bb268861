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
	cur, prev map[snapshotKey]*profile.Profile
	// offered is what Held answered for each descriptor of the list being
	// decoded, in list order: how the sidecar pass tells a shared profile,
	// which it must not write, from a fresh one.
	offered []*profile.Profile

	// Shared counts descriptors whose profile was a held snapshot's pointer,
	// Decoded those that got a profile built (a first sighting, a different
	// content under a held key, or a clone for a different accumulator).
	Shared, Decoded int64
}

// Held implements Holder: the snapshot held for exactly (node, stamp), never
// a discard.
func (t *SnapshotTable) Held(node news.NodeID, stamp int64) (Descriptor, bool) {
	k := snapshotKey{node, stamp}
	p, ok := t.cur[k]
	if !ok {
		if p, ok = t.prev[k]; ok {
			t.keep(k, p)
		}
	}
	t.offered = append(t.offered, p)
	return Descriptor{Node: node, Stamp: stamp, Profile: p}, false
}

func (t *SnapshotTable) keep(k snapshotKey, p *profile.Profile) {
	if t.cur == nil {
		t.cur = make(map[snapshotKey]*profile.Profile)
	}
	t.cur[k] = p
}

// AppendDecode decodes a descriptor list followed by its norm-accumulator
// sidecar (AppendDescriptors then AppendNormAccumulators) by appending onto
// dst, with AppendDecodeDescriptors' arena contract. Every byte is walked and
// validated as a plain decode would; the result differs from one only in
// which equal profiles are the same pointer. A shared profile is never
// written: see decodeNormAccumulators.
func (t *SnapshotTable) AppendDecode(dst []Descriptor, data []byte) ([]Descriptor, []byte, error) {
	t.offered = t.offered[:0]
	from := len(dst)
	rest, err := decodeDescriptors(&dst, data, t)
	if err != nil {
		return dst, data, err
	}
	rest, err = decodeNormAccumulators(rest, dst[from:], t)
	if err != nil {
		return dst, data, err
	}
	return dst, rest, nil
}

// Rotate starts a new generation: the current one becomes the previous, and
// what was the previous is forgotten (its storage is kept for reuse).
func (t *SnapshotTable) Rotate() {
	t.cur, t.prev = t.prev, t.cur
	clear(t.cur)
}
