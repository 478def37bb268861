package profile

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"whatsup/internal/news"
)

// escaped is a finite score AppendScore writes in its escape form (tag 2 and
// eight raw bytes): its reversed bits are past the shifted range.
var escaped = math.Float64frombits(0xFDFFFFFFFFFFFFFF)

// scoreOf picks a score for an edit from one byte: the binary opinions, item
// averages, a -0, and an escaped value.
func scoreOf(b byte) float64 {
	return [...]float64{0, 1, 0.5, 1.0 / 3, math.Copysign(0, -1), 0.375, escaped, 0.875}[b%8]
}

// edited builds a profile from an edit history read out of script, three
// bytes an edit: Set, Windowed, PurgeOlderThan and MergeAverage, over ids
// drawn from pool and a few of its own.
func edited(script []byte, pool []news.ID) *Profile {
	p := New()
	id := func(b byte) news.ID {
		if len(pool) > 0 && b%4 != 0 {
			return pool[int(b)%len(pool)]
		}
		return news.ID(b)
	}
	for ; len(script) >= 3; script = script[3:] {
		op, a, b := script[0], script[1], script[2]
		switch op % 5 {
		case 0, 1:
			p.Set(id(a), int64(b%16), scoreOf(b>>4))
		case 2:
			p = p.Windowed(int64(a % 16))
		case 3:
			p.PurgeOlderThan(int64(a % 16))
		default:
			other := New()
			other.Set(id(a), int64(b%16), scoreOf(b))
			other.Set(id(b), int64(a%16), scoreOf(a))
			p.MergeAverage(other)
		}
	}
	return p
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzPackedSimilarity is the differential test of the packed kernel: for a
// candidate read from data (or, when data does not decode, one edited from
// it) and a target edited from other, both of which hold the canonical
// Σ score² (checkCanonicalNorm), WUP and Cosine give the same bits against
// the candidate's Profile and against its Packed forms — Pack, and
// DecodePacked of canonical bytes. Both directions are scored.
func FuzzPackedSimilarity(f *testing.F) {
	sample := wireSample()
	f.Add(sample.AppendWire(nil), []byte{0, 0, 0x10, 1, 1, 0, 2, 2, 0x40})
	f.Add(New().AppendWire(nil), []byte{0, 1, 0x10})
	one := New()
	one.Set(7, 1, 1)
	f.Add(one.AppendWire(nil), []byte{0, 1, 0x10, 4, 1, 1, 0, 3, 0x60, 2, 5, 0, 3, 9, 0})
	negZero := New()
	negZero.Set(7, 1, math.Copysign(0, -1))
	negZero.Set(9, 1, escaped)
	f.Add(negZero.AppendWire(nil), []byte{0, 1, 0x10, 0, 2, 0x60, 1, 3, 0x40})
	f.Fuzz(func(t *testing.T, data, other []byte) {
		cand, _, err := DecodeWire(data)
		if err != nil {
			cand = edited(data, nil)
		}
		var pool []news.ID
		for _, e := range cand.entries {
			pool = append(pool, e.Item)
		}
		self := edited(other, pool)
		checkCanonicalNorm(t, cand)
		checkCanonicalNorm(t, self)
		candPacked, selfPacked := cand.Pack(), self.Pack()
		candPk, selfPk := &candPacked, &selfPacked
		var decoded *Packed
		if err == nil {
			if pk, _, perr := DecodePacked(data); perr == nil {
				decoded = &pk
			}
		}
		for _, m := range []Metric{WUP{}, Cosine{}} {
			want := m.Similarity(self, cand)
			if got := m.SimilarityPacked(self, candPk); !sameBits(got, want) {
				t.Fatalf("%s: packed candidate %v scores %v, decoded %v", m.Name(), candPk, got, want)
			}
			if decoded != nil {
				if got := m.SimilarityPacked(self, decoded); !sameBits(got, want) {
					t.Fatalf("%s: candidate decoded from the wire scores %v, DecodeWire %v", m.Name(), got, want)
				}
			}
			if got, want := m.SimilarityPacked(cand, selfPk), m.Similarity(cand, self); !sameBits(got, want) {
				t.Fatalf("%s: edited target packed scores %v, unpacked %v", m.Name(), got, want)
			}
		}
	})
}

// TestPackedIsASnapshot: a Packed keeps the content and Σ score² of the
// moment it was packed, whatever the profile does afterwards.
func TestPackedIsASnapshot(t *testing.T) {
	p := wireSample()
	enc, sum := p.AppendWire(nil), p.sumSq
	pk := new(Packed)
	*pk = p.Pack()
	p.Set(1, 1, 1)
	p.PurgeOlderThan(11)
	if u, _, _ := DecodeWire(pk.AppendWire(nil)); !bytes.Equal(pk.AppendWire(nil), enc) || !sameBits(pk.sumSq, sum) || u.Len() != 3 {
		t.Fatalf("the snapshot changed with its profile: %v, Σ score² %v", pk, pk.sumSq)
	}
	if c := pk.Clone(); c == pk || !c.Equal(pk) || !sameBits(c.sumSq, sum) || &c.wire[0] == &pk.wire[0] {
		t.Fatal("Clone is not an equal copy of its own")
	}
}

// TestPurgeRightSizesEntries: a purge that leaves a profile under half its
// array's capacity gives it an array of its live length.
func TestPurgeRightSizesEntries(t *testing.T) {
	p := New()
	for i := 0; i < 64; i++ {
		p.Set(news.ID(i), int64(i), 1)
	}
	p.PurgeOlderThan(54)
	if p.Len() != 10 || cap(p.entries) > 2*p.Len() {
		t.Fatalf("after the purge: %d entries in an array of %d", p.Len(), cap(p.entries))
	}
	p.PurgeOlderThan(55) // a purge that keeps most of the array leaves it alone
	if cap(p.entries) != 10 {
		t.Fatalf("a purge of one of ten reallocated: capacity %d", cap(p.entries))
	}
}

// TestPackedSimilarityHashedIDs runs the differential check over random
// profiles keyed like the system's items, by 64-bit content hashes: id
// deltas of nine and ten bytes, read eight bytes at a time except near the
// end of the encoding.
func TestPackedSimilarityHashedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := make([]news.ID, 40)
	for i := range pool {
		pool[i] = news.ID(rng.Uint64())
	}
	random := func() *Profile {
		p := New()
		for n := rng.Intn(20); n > 0; n-- {
			p.Set(pool[rng.Intn(len(pool))], rng.Int63n(200), scoreOf(byte(rng.Intn(8))))
			if rng.Intn(4) == 0 {
				p.PurgeOlderThan(rng.Int63n(50))
			}
		}
		return p
	}
	for trial := 0; trial < 2000; trial++ {
		self, cand := random(), random()
		for _, m := range []Metric{WUP{}, Cosine{}} {
			pk := cand.Pack()
			if got, want := m.SimilarityPacked(self, &pk), m.Similarity(self, cand); !sameBits(got, want) {
				t.Fatalf("trial %d %s: packed %v, decoded %v", trial, m.Name(), got, want)
			}
		}
	}
}
