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

	// Shared counts descriptors whose profile was a held snapshot's pointer,
	// Decoded those that got a snapshot built (a first sighting, or a
	// different content under a held key).
	Shared, Decoded int64
}

// Held offers the decoder the snapshot held for exactly (node, stamp),
// promoting one found in the previous generation; it never discards. The
// table is the Holder of its own decodes.
func (t *SnapshotTable) Held(node news.NodeID, stamp int64) (Descriptor, bool) {
	k := snapshotKey{node, stamp}
	p, ok := t.cur[k]
	if !ok {
		if p, ok = t.prev[k]; ok {
			t.keep(k, p)
		}
	}
	return Descriptor{Stamp: stamp, Profile: p}, false
}

func (t *SnapshotTable) keep(k snapshotKey, p *profile.Packed) {
	if t.cur == nil {
		t.cur = make(map[snapshotKey]*profile.Packed)
	}
	t.cur[k] = p
}

// AppendDecode decodes a descriptor list by appending onto dst, with
// AppendDecodeDescriptors' arena contract, against the snapshots the table
// holds: every byte is walked and validated as a plain decode would, and
// the result differs only in which equal snapshots are the same pointer. A
// held snapshot is shared when its bytes are Equal to the ones decoded, and
// a first sighting under its (node, stamp) is kept for later lists to share.
func (t *SnapshotTable) AppendDecode(dst []Descriptor, data []byte) ([]Descriptor, []byte, error) {
	from := len(dst)
	rest, err := decodeDescriptors(&dst, data, t, nil)
	if err != nil {
		return dst, data, err
	}
	for _, d := range dst[from:] {
		if d.Profile == nil {
			continue
		}
		k := snapshotKey{d.Node, d.Stamp}
		switch held := t.cur[k]; held { // Held promoted every hit into cur
		case d.Profile:
			t.Shared++
			continue
		case nil:
			t.keep(k, d.Profile)
		}
		t.Decoded++
	}
	return dst, rest, nil
}

// Rotate starts a new generation: the current one becomes the previous, and
// what was the previous is forgotten (its storage is kept for reuse).
func (t *SnapshotTable) Rotate() {
	t.cur, t.prev = t.prev, t.cur
	clear(t.cur)
}
