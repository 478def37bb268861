package profile

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"sort"

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
//
// An owned snapshot (Snapshot, Clone) of up to 1 112 bytes is one heap
// object: its header and its bytes share a box of the smallest size that
// holds them, so it costs one allocation and is collected whole, apart from
// every other snapshot. A larger one is a header and separate bytes. Every
// empty profile's owned snapshot is one shared object, which costs nothing.
type Packed struct {
	wire  []byte  // canonical AppendWire encoding
	sumSq float64 // Σ score² in ascending id order
}

// Pack returns a snapshot of the profile's current content by value; its
// bytes are the one allocation. It suits a snapshot stored inside another
// record; Snapshot is the form to share by pointer.
func (p *Profile) Pack() Packed {
	return Packed{wire: p.AppendWire(make([]byte, 0, p.WireSize())), sumSq: p.sumSq}
}

// Snapshot returns an owned snapshot of the profile's current content, its
// header and bytes one allocation up to the largest box, and the shared
// empty snapshot for an empty profile. Callers that gossip one profile many
// times snapshot it once per Version and share the one pointer.
func (p *Profile) Snapshot() *Packed {
	if len(p.entries) == 0 {
		return &emptySnapshot
	}
	s := newPacked(p.WireSize(), p.sumSq)
	s.wire = p.AppendWire(s.wire[:0])
	return s
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

// Clone returns a copy of the snapshot that aliases nothing, its header and
// bytes one allocation up to the largest box; an empty profile's is the
// shared empty snapshot.
func (p *Packed) Clone() *Packed {
	if len(p.wire) == 1 { // the zero entry count: an entry takes three bytes at least
		return &emptySnapshot
	}
	c := newPacked(len(p.wire), p.sumSq)
	copy(c.wire, p.wire)
	return c
}

// newPacked returns an owned snapshot of n zero bytes, with cap(wire) == n
// so that no append can write past them. The header and the bytes are one
// object, from the smallest box that holds n bytes; past the largest box
// they are two, and an empty snapshot is the header alone.
func newPacked(n int, sumSq float64) *Packed {
	var p *Packed
	switch i := sort.Search(len(boxes), func(i int) bool { return boxes[i].size >= n }); {
	case n == 0:
		p = new(Packed)
	case i < len(boxes):
		p = boxes[i].make(n)
	default:
		p = &Packed{wire: make([]byte, n)}
	}
	p.sumSq = sumSq
	return p
}

// emptySnapshot is every empty profile's owned snapshot: its one byte is the
// zero entry count. Snapshots are immutable, so one object serves them all.
var emptySnapshot = Packed{wire: []byte{0}}

// box is a snapshot's header followed by the array its bytes live in.
type box[W any] struct {
	p Packed
	w W
}

// boxes are the box sizes, ascending: each fills one of the runtime's size
// classes from 48 to 1 152 bytes, less the 32-byte header and, above 512
// bytes, the 8-byte malloc header the runtime puts before an object with
// pointers, so a box wastes no more than the class rounding of its bytes
// alone would. Those two figures are a 64-bit platform's; elsewhere a box
// may round up a class but is still one allocation. The table stops at
// 1 112 bytes, although a fifth of the snapshots a live fleet keeps are
// larger: its peak RSS grows with the table's reach, and at this size it
// still makes a third fewer allocations. make(n) returns the box's snapshot
// with wire = w[:n:n].
var boxes = [...]struct {
	size int
	make func(n int) *Packed
}{
	{16, func(n int) *Packed { b := new(box[[16]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{32, func(n int) *Packed { b := new(box[[32]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{48, func(n int) *Packed { b := new(box[[48]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{64, func(n int) *Packed { b := new(box[[64]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{80, func(n int) *Packed { b := new(box[[80]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{96, func(n int) *Packed { b := new(box[[96]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{112, func(n int) *Packed { b := new(box[[112]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{128, func(n int) *Packed { b := new(box[[128]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{144, func(n int) *Packed { b := new(box[[144]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{160, func(n int) *Packed { b := new(box[[160]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{176, func(n int) *Packed { b := new(box[[176]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{192, func(n int) *Packed { b := new(box[[192]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{208, func(n int) *Packed { b := new(box[[208]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{224, func(n int) *Packed { b := new(box[[224]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{256, func(n int) *Packed { b := new(box[[256]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{288, func(n int) *Packed { b := new(box[[288]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{320, func(n int) *Packed { b := new(box[[320]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{352, func(n int) *Packed { b := new(box[[352]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{384, func(n int) *Packed { b := new(box[[384]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{416, func(n int) *Packed { b := new(box[[416]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{448, func(n int) *Packed { b := new(box[[448]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{480, func(n int) *Packed { b := new(box[[480]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{536, func(n int) *Packed { b := new(box[[536]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{600, func(n int) *Packed { b := new(box[[600]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{664, func(n int) *Packed { b := new(box[[664]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{728, func(n int) *Packed { b := new(box[[728]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{856, func(n int) *Packed { b := new(box[[856]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{984, func(n int) *Packed { b := new(box[[984]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
	{1112, func(n int) *Packed { b := new(box[[1112]byte]); b.p.wire = b.w[:n:n]; return &b.p }},
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
