package profile

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/wire"
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
// the candidate's Profile and against its Packed forms — Pack, Snapshot,
// DecodePacked of canonical bytes and the Clone of that. Both directions are
// scored, the target's Snapshot and the Clone of its Pack included, so
// fuzzed sizes cross the boxes of owned snapshots.
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
		cands := map[string]*Packed{"Pack": &candPacked, "Snapshot": cand.Snapshot()}
		if err == nil {
			if pk, _, perr := DecodePacked(data); perr == nil {
				cands["DecodePacked"], cands["Clone of DecodePacked"] = &pk, pk.Clone()
			}
		}
		selves := map[string]*Packed{"Pack": &selfPacked, "Snapshot": self.Snapshot(), "Clone of Pack": selfPacked.Clone()}
		for _, m := range []Metric{WUP{}, Cosine{}} {
			want := m.Similarity(self, cand)
			for form, pk := range cands {
				if got := m.SimilarityPacked(self, pk); !sameBits(got, want) {
					t.Fatalf("%s: candidate %v by %s scores %v, unpacked %v", m.Name(), pk, form, got, want)
				}
			}
			want = m.Similarity(cand, self)
			for form, pk := range selves {
				if got := m.SimilarityPacked(cand, pk); !sameBits(got, want) {
					t.Fatalf("%s: edited target %v by %s scores %v, unpacked %v", m.Name(), pk, form, got, want)
				}
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

// sized returns a profile whose packed encoding is n bytes, n = 1 or n ≥ 4:
// the fewest entries of one-byte id deltas and scores whose stamps, one to
// ten bytes each, make up the rest.
func sized(t *testing.T, n int) *Profile {
	k := 0
	for ; ; k++ {
		if body := n - wire.UintLen(uint64(k)); 3*k <= body && body <= 12*k {
			break
		}
	}
	p := New()
	extra := n - wire.UintLen(uint64(k)) - 3*k // stamp bytes past the first of each entry
	for i := 1; i <= k; i++ {
		stamp := int64(0)
		if l := min(extra, 9); l > 0 {
			stamp, extra = 1<<(7*l-1), extra-l // zigzag: 2·stamp is a (l+1)-byte varint
		}
		p.Set(news.ID(i), stamp, float64(i%2))
	}
	if p.WireSize() != n {
		t.Fatalf("sized(%d) encodes to %d bytes", n, p.WireSize())
	}
	return p
}

// allocated returns the bytes the heap allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var ownedSink *Packed

// TestOwnedSnapshotIsOneAllocation pins what an owned snapshot costs. Clone
// and Snapshot make one allocation at every box's edges (n−1, n and n+1
// bytes) and two one byte past the largest box, the zero Packed's copy is its
// header alone, and an empty profile's one byte is the shared empty snapshot,
// which costs nothing. The copy is Equal to its source with the same Σ score² bits,
// and cap(wire) == len(wire), so an append can never write into the box.
// Each box is the smallest single object that holds the header and its
// bytes: over every size from 1 to 4096 bytes, Clone allocates exactly what
// one pointerful object of header and bytes would up to the largest box, the
// malloc header the runtime adds above 512 bytes included, and what a header
// and separate bytes do past it. The total against a header and separate
// bytes at every size is logged: no single object can always match them,
// since where header plus bytes cross a size class and the bytes alone do
// not, the box rounds up to the next class. The box sizes assume a 64-bit
// platform's 32-byte header, so the byte check skips where the header
// differs, and the race detector inflates the heap, so the test skips under
// it.
func TestOwnedSnapshotIsOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap")
	}
	largest := boxes[len(boxes)-1].size
	sizes := []int{0, 1, largest + 1}
	for _, b := range boxes {
		sizes = append(sizes, b.size-1, b.size, b.size+1)
	}
	for _, n := range sizes {
		want := 1.0
		switch {
		case n == 1:
			want = 0
		case n > largest:
			want = 2
		}
		var src Packed // the zero Packed: an empty snapshot
		var prof *Profile
		if n > 0 {
			prof = sized(t, n)
			src = prof.Pack()
		}
		forms := map[string]func() *Packed{"Clone": src.Clone}
		if prof != nil {
			forms["Snapshot"] = prof.Snapshot
		}
		for name, owned := range forms {
			c := owned()
			if !c.Equal(&src) || len(c.wire) != n || !sameBits(c.sumSq, src.sumSq) {
				t.Fatalf("%s at %d bytes: %v, Σ score² %v; want %v, %v", name, n, c, c.sumSq, &src, src.sumSq)
			}
			if cap(c.wire) != len(c.wire) {
				t.Errorf("%s at %d bytes: capacity %d", name, n, cap(c.wire))
			}
			if n > 0 && &c.wire[0] == &src.wire[0] {
				t.Errorf("%s at %d bytes aliases its source", name, n)
			}
			if shared := owned() == c; shared != (n == 1) {
				t.Errorf("%s at %d bytes: two copies share one object: %v", name, n, shared)
			}
			if got := testing.AllocsPerRun(20, func() { ownedSink = owned() }); got != want {
				t.Errorf("%s at %d bytes: %.0f allocations, want %.0f", name, n, got, want)
			}
		}
	}

	header := int(reflect.TypeFor[Packed]().Size())
	if header != 32 {
		t.Skipf("the box sizes assume a 32-byte header; this platform's is %d bytes", header)
	}
	const most = 4096
	srcs := make([]Packed, most+1)
	for n := 1; n <= most; n++ {
		srcs[n].wire = make([]byte, n)
	}
	keep := make([]any, most+1)
	each := func(form func(p *Packed) any) uint64 {
		least := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ { // the least of three: the runtime may allocate for itself meanwhile
			clear(keep)
			least = min(least, allocated(func() {
				for n := 1; n <= most; n++ {
					keep[n] = form(&srcs[n])
				}
			}))
		}
		return least
	}
	twoObjects := func(p *Packed) any { return &Packed{wire: bytes.Clone(p.wire), sumSq: p.sumSq} }
	boxed := each(func(p *Packed) any { return p.Clone() })
	best := each(func(p *Packed) any {
		switch {
		case len(p.wire) == 1:
			return nil // the shared empty snapshot
		case len(p.wire) > largest:
			return twoObjects(p)
		}
		return &make([]*byte, (header+len(p.wire)+7)/8)[0] // one pointerful object
	})
	two := each(twoObjects)
	if boxed != best {
		t.Errorf("Clone allocates %d bytes over sizes 1–%d, one object of header and bytes from 2 to %d and two past it %d",
			boxed, most, largest, best)
	}
	t.Logf("sizes 1–%d: boxes %d bytes, a header and separate bytes %d (%+.2f %%)",
		most, boxed, two, 100*(float64(boxed)/float64(two)-1))
}
