package profile

import (
	"bytes"
	"fmt"

	"whatsup/internal/news"
	"whatsup/internal/wire"
)

// The packed wire layout (AppendWire, used by the live transports) is an
// entry count followed by the entries in sorted id order, each an {id,
// stamp, score} triplet, so it is canonical: profiles with equal entries
// encode to identical bytes. Everything is varint-packed: item ids are
// delta-encoded (sorted order makes deltas small and strictly positive),
// stamps are zigzag varints (gossip-cycle stamps are tiny), and scores use
// the score packing of internal/wire (binary like/dislike scores are one
// byte, dyadic item averages a few, instead of 8).

// AppendWire appends the packed wire encoding of the profile to buf and
// returns the extended slice. The encoding is canonical: profiles with equal entries
// produce identical bytes.
//
//whatsup:hotpath
func (p *Profile) AppendWire(buf []byte) []byte {
	buf = wire.AppendUint(buf, uint64(len(p.entries)))
	prev := uint64(0)
	for i, e := range p.entries {
		id := uint64(e.Item)
		if i == 0 {
			buf = wire.AppendUint(buf, id)
		} else {
			buf = wire.AppendUint(buf, id-prev) // entries are sorted: delta ≥ 1
		}
		prev = id
		buf = wire.AppendInt(buf, e.Stamp)
		buf = wire.AppendScore(buf, e.Score)
	}
	return buf
}

// WireSize returns the exact number of bytes AppendWire produces for the
// profile — the Figure 8b bandwidth accounting and the live transports share
// the packed codec as their single source of truth. It walks the entries
// without encoding, so simulation hot paths pay no allocation for it.
//
//whatsup:hotpath
func (p *Profile) WireSize() int {
	size := wire.UintLen(uint64(len(p.entries)))
	prev := uint64(0)
	for i, e := range p.entries {
		id := uint64(e.Item)
		delta := id
		if i > 0 {
			delta = id - prev // entries are sorted: delta ≥ 1
		}
		prev = id
		size += wire.UintLen(delta) + wire.IntLen(e.Stamp) + wire.ScoreLen(e.Score)
	}
	return size
}

// DecodeWire decodes one packed profile from the front of data into a new
// profile (ReadWire), returning it and the remaining bytes.
func DecodeWire(data []byte) (*Profile, []byte, error) {
	p := new(Profile)
	rest, err := p.ReadWire(data)
	if err != nil {
		return nil, data, err
	}
	return p, rest, nil
}

// ReadWire replaces p's entries with the packed profile at the front of data
// and returns the remaining bytes. It is the one decoder of the packed
// layout into a working profile, and it reuses p's entry array when the
// declared count fits, so a scratch profile decoded into again and again
// stops allocating once it has grown. Nothing aliases data. The input is
// untrusted network data: non-monotonic ids, non-finite scores, non-canonical
// fields and truncation all produce errors, never panics, and the declared
// entry count is checked against the bytes actually available before any
// allocation. It accepts exactly what DecodePacked accepts. On error p is
// left empty; either way its version is bumped.
func (p *Profile) ReadWire(data []byte) ([]byte, error) {
	p.version++
	rest, _, err := decodeWire(p, data)
	if err != nil {
		p.entries, p.sumSq = p.entries[:0], 0
		return data, err
	}
	return rest, nil
}

// decodeWire is the one walk over the packed layout: it validates, returns
// Σ score² accumulated in ascending id order, and fills p when p is not nil,
// replacing its entries in their own array when it is large enough. It
// rejects any field not in the form AppendWire writes
// — a non-minimal varint, or a score AppendScore would encode otherwise — so
// the bytes it accepts are exactly the encoding of the entries they decode
// to.
func decodeWire(p *Profile, data []byte) (rest []byte, sumSq float64, err error) {
	n, rest, err := wire.Uint(data)
	if err != nil {
		return data, 0, fmt.Errorf("profile: entry count: %w", err)
	}
	if len(data)-len(rest) != wire.UintLen(n) {
		return data, 0, errNonCanonical("entry count")
	}
	// Each entry is at least 3 bytes (id delta, stamp, score — one byte
	// each), which bounds n before the allocation below.
	if n > uint64(len(rest))/3 {
		return data, 0, fmt.Errorf("%w: %d entries declared, %d bytes remain", wire.ErrTruncated, n, len(rest))
	}
	if p != nil {
		if p.entries == nil || uint64(cap(p.entries)) < n {
			p.entries = make([]Entry, 0, n)
		} else {
			p.entries = p.entries[:0]
		}
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		at := rest
		var delta uint64
		delta, rest, err = wire.Uint(rest)
		if err != nil {
			return data, 0, fmt.Errorf("profile: entry %d id: %w", i, err)
		}
		if len(at)-len(rest) != wire.UintLen(delta) {
			return data, 0, errNonCanonical("id")
		}
		id := delta
		if i > 0 {
			if delta == 0 {
				return data, 0, fmt.Errorf("%w: duplicate or unsorted profile entry", wire.ErrMalformed)
			}
			id = prev + delta
			if id < prev {
				return data, 0, fmt.Errorf("%w: profile id overflow", wire.ErrMalformed)
			}
		}
		prev = id
		at = rest
		var stamp int64
		stamp, rest, err = wire.Int(rest)
		if err != nil {
			return data, 0, fmt.Errorf("profile: entry %d stamp: %w", i, err)
		}
		if len(at)-len(rest) != wire.IntLen(stamp) {
			return data, 0, errNonCanonical("stamp")
		}
		at = rest
		var score float64
		score, rest, err = wire.Score(rest)
		if err != nil {
			return data, 0, fmt.Errorf("profile: entry %d score: %w", i, err)
		}
		var buf [10]byte
		if !bytes.Equal(wire.AppendScore(buf[:0], score), at[:len(at)-len(rest)]) {
			return data, 0, errNonCanonical("score")
		}
		if p != nil {
			p.entries = append(p.entries, Entry{Item: news.ID(id), Stamp: stamp, Score: score})
		}
		sumSq += score * score
	}
	if p != nil {
		p.sumSq = sumSq
	}
	return rest, sumSq, nil
}

func errNonCanonical(field string) error {
	return fmt.Errorf("%w: non-canonical profile %s", wire.ErrMalformed, field)
}
