package profile

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"

	"whatsup/internal/news"
)

// Packed is a profile snapshot at rest: the canonical AppendWire bytes of
// the entries, plus their Σ score². It is what an overlay descriptor
// carries, so a snapshot costs its packed bytes — a binary opinion is about
// three — instead of a 24-byte entry each.
//
// A Packed is immutable: nothing writes it once it exists, so snapshots are
// shared freely between views, and a pointer identifies fixed content. Its
// bytes are canonical (every varint minimal, every score in
// wire.AppendScore's form), so two Packed hold equal entries exactly when
// their bytes are equal, and then they carry the same Σ score² bits too (a
// Profile keeps it summed in ascending id order, as a decode sums it), so
// they score identically against every profile, and as the unpacked profile
// does.
type Packed struct {
	wire  []byte  // canonical AppendWire encoding
	sumSq float64 // Σ score² in ascending id order
}

// Pack returns a snapshot of the profile's current content; its bytes are
// the one allocation. Callers that gossip one profile many times pack it
// once per Version and share the address of the one snapshot.
func (p *Profile) Pack() Packed {
	return Packed{wire: p.AppendWire(make([]byte, 0, p.WireSize())), sumSq: p.sumSq}
}

// DecodePacked validates one packed profile at the front of data and returns
// it as a Packed aliasing data, and the remaining bytes. It accepts exactly
// what DecodeWire accepts, canonical form only: a non-minimal varint or a
// score AppendScore would not write is malformed, which is what makes equal
// bytes mean equal entries. The result is valid while data is; Clone gives
// a copy that aliases nothing.
func DecodePacked(data []byte) (Packed, []byte, error) {
	rest, sumSq, err := decodeWire(nil, data)
	if err != nil {
		return Packed{}, data, err
	}
	return Packed{wire: data[:len(data)-len(rest)], sumSq: sumSq}, rest, nil
}

// Clone returns a copy of the snapshot whose bytes alias nothing.
func (p *Packed) Clone() *Packed {
	return &Packed{wire: bytes.Clone(p.wire), sumSq: p.sumSq}
}

// Equal reports whether two snapshots hold the same entries, and so score
// identically against every profile: whether their bytes are equal.
func (p *Packed) Equal(q *Packed) bool { return bytes.Equal(p.wire, q.wire) }

// WireSize returns the length of the packed encoding.
func (p *Packed) WireSize() int { return len(p.wire) }

// AppendWire appends the packed encoding: the bytes Profile.AppendWire wrote
// for the packed content.
func (p *Packed) AppendWire(buf []byte) []byte { return append(buf, p.wire...) }

// String renders the snapshot's entries like Profile.String.
func (p *Packed) String() string {
	u, _, err := DecodeWire(p.wire)
	if err != nil {
		return "packed{}" // the zero Packed
	}
	return u.String()
}

// The bytes of a Packed were validated when it was made, so the readers
// below decode them without checks.

// packedUint decodes the uvarint at b[i:], returning it and the next offset.
func packedUint(b []byte, i int) (uint64, int) {
	var v uint64
	for s := uint(0); ; s += 7 {
		c := b[i]
		i++
		v |= uint64(c&0x7f) << s
		if c < 0x80 {
			return v, i
		}
	}
}

// compact7 joins the low seven bits of each byte of x, least significant
// byte first: the value of up to eight varint bytes.
func compact7(x uint64) uint64 {
	x &= 0x7f7f7f7f7f7f7f7f
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	return x&0x000000000fffffff | x&0x0fffffff00000000>>4
}

// skipVarint returns the offset past the varint at b[i:].
func skipVarint(b []byte, i int) int {
	for b[i] >= 0x80 {
		i++
	}
	return i + 1
}

// packedScore decodes the score at b[i:], as wire.Score does.
func packedScore(b []byte, i int) (float64, int) {
	u, j := packedUint(b, i)
	switch u {
	case 0:
		return 0, j
	case 1:
		return 1, j
	case 2:
		return math.Float64frombits(binary.BigEndian.Uint64(b[j:])), j + 8
	}
	return math.Float64frombits(bits.ReverseBytes64(u - 3)), j
}

// skipScore returns the offset past the score at b[i:].
func skipScore(b []byte, i int) int {
	if b[i] == 2 {
		return i + 9
	}
	return skipVarint(b, i)
}

// forEachItem calls fn with every item id of a packed encoding, in
// ascending order.
func forEachItem(b []byte, fn func(news.ID)) {
	n, i := packedUint(b, 0)
	id := uint64(0)
	for ; n > 0; n-- {
		var delta uint64
		delta, i = packedUint(b, i)
		id += delta // the first id is written whole: a delta from 0
		fn(news.ID(id))
		i = skipScore(b, skipVarint(b, i))
	}
}
