package overlay

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"whatsup/internal/news"
	"whatsup/internal/profile"
)

func desc(node news.NodeID, stamp int64, likedItems ...news.ID) Descriptor {
	p := profile.New()
	for _, id := range likedItems {
		p.Set(id, stamp, 1)
	}
	return Descriptor{Node: node, Stamp: stamp, Profile: snapshotOf(p)}
}

// TestDescriptorSize pins a descriptor at an id, a stamp and a snapshot
// pointer: it is copied by value through every view, merge scratch and decode
// arena, so a field added to it is paid for by every view entry.
func TestDescriptorSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Descriptor{}); got != 24 {
		t.Fatalf("a descriptor is %d bytes, want 24", got)
	}
}

func TestInsertDeduplicatesKeepingFreshest(t *testing.T) {
	v := NewView(10)
	v.Insert(desc(1, 5))
	v.Insert(desc(1, 9))
	v.Insert(desc(1, 2))
	if v.Len() != 1 {
		t.Fatalf("len=%d want 1", v.Len())
	}
	d, _ := v.Get(1)
	if d.Stamp != 9 {
		t.Fatalf("kept stamp %d, want freshest 9", d.Stamp)
	}
}

func TestInsertAllExcludesSelf(t *testing.T) {
	v := NewView(10)
	v.InsertAll([]Descriptor{desc(1, 1), desc(2, 1), desc(3, 1)}, 2)
	if v.Contains(2) {
		t.Fatal("InsertAll must skip the excluded node")
	}
	if v.Len() != 2 {
		t.Fatalf("len=%d want 2", v.Len())
	}
}

func TestRemoveKeepsIndexConsistent(t *testing.T) {
	v := NewView(10)
	for i := news.NodeID(0); i < 5; i++ {
		v.Insert(desc(i, int64(i)))
	}
	v.Remove(2)
	v.Remove(0)
	v.Remove(99) // absent: no-op
	if v.Len() != 3 {
		t.Fatalf("len=%d want 3", v.Len())
	}
	for _, id := range []news.NodeID{1, 3, 4} {
		d, ok := v.Get(id)
		if !ok || d.Node != id {
			t.Fatalf("index broken for node %d", id)
		}
	}
}

func TestOldest(t *testing.T) {
	v := NewView(10)
	if _, ok := v.Oldest(); ok {
		t.Fatal("empty view must have no oldest")
	}
	v.Insert(desc(1, 7))
	v.Insert(desc(2, 3))
	v.Insert(desc(3, 5))
	d, ok := v.Oldest()
	if !ok || d.Node != 2 {
		t.Fatalf("oldest=%v want node 2", d.Node)
	}
	// Tie: smaller node id wins deterministically.
	v.Insert(desc(0, 3))
	if d, _ := v.Oldest(); d.Node != 0 {
		t.Fatalf("tie-break wrong: %v", d.Node)
	}
}

func TestTrimRandomRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewView(5)
	for i := news.NodeID(0); i < 20; i++ {
		v.Insert(desc(i, int64(i)))
	}
	v.TrimRandom(rng)
	if v.Len() != 5 {
		t.Fatalf("len=%d want 5", v.Len())
	}
}

func TestTrimBySimilarityKeepsClosest(t *testing.T) {
	v := NewView(2)
	self := profile.New()
	self.Set(1, 0, 1)
	self.Set(2, 0, 1)
	v.Insert(desc(10, 0, 1, 2)) // identical tastes
	v.Insert(desc(11, 0, 1))    // partial overlap
	v.Insert(desc(12, 0, 99))   // disjoint
	v.TrimBySimilarity(rand.New(rand.NewSource(9)), profile.WUP{}, self)
	if v.Len() != 2 {
		t.Fatalf("len=%d want 2", v.Len())
	}
	if !v.Contains(10) || !v.Contains(11) {
		t.Fatalf("similarity trim kept wrong nodes: %v", v.Nodes())
	}
}

func TestMostSimilar(t *testing.T) {
	v := NewView(5)
	if _, ok := v.MostSimilar(profile.WUP{}, profile.New()); ok {
		t.Fatal("empty view must report no most-similar node")
	}
	target := profile.New()
	target.Set(1, 0, 1)
	target.Set(2, 0, 1)
	v.Insert(desc(10, 0, 3)) // disjoint
	v.Insert(desc(11, 0, 1, 2))
	d12 := profile.New()
	d12.Set(1, 0, 1)
	d12.Set(2, 0, 0) // likes 1 but dislikes 2: penalized by ‖sub‖
	v.Insert(Descriptor{Node: 12, Profile: snapshotOf(d12)})
	d, ok := v.MostSimilar(profile.WUP{}, target)
	if !ok || d.Node != 11 {
		t.Fatalf("most similar = %v, want 11", d.Node)
	}
}

func TestMostSimilarAllZeroFallsBackDeterministically(t *testing.T) {
	v := NewView(5)
	v.Insert(desc(7, 0, 3))
	v.Insert(desc(4, 0, 5))
	target := profile.New()
	target.Set(99, 0, 1)
	d, ok := v.MostSimilar(profile.WUP{}, target)
	if !ok || d.Node != 4 {
		t.Fatalf("zero-similarity tie must pick smallest node id, got %v", d.Node)
	}
}

func TestRandomSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := NewView(20)
	for i := news.NodeID(0); i < 10; i++ {
		v.Insert(desc(i, 0))
	}
	s := v.RandomSample(rng, 4)
	if len(s) != 4 {
		t.Fatalf("sample size %d want 4", len(s))
	}
	seen := map[news.NodeID]bool{}
	for _, d := range s {
		if seen[d.Node] {
			t.Fatal("sample must be distinct")
		}
		seen[d.Node] = true
	}
	if got := v.RandomSample(rng, 50); len(got) != 10 {
		t.Fatalf("oversized sample must return all entries, got %d", len(got))
	}
}

func TestViewPropertyInvariant(t *testing.T) {
	// After arbitrary insert/remove/trim sequences the index must exactly
	// mirror the entries and capacity must be respected post-trim.
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewView(6)
		for _, op := range ops {
			node := news.NodeID(op % 17)
			switch op % 4 {
			case 0, 1:
				v.Insert(desc(node, int64(op)))
			case 2:
				v.Remove(node)
			case 3:
				v.TrimRandom(rng)
			}
		}
		v.TrimRandom(rng)
		if v.Len() > 6 {
			return false
		}
		for _, d := range v.Entries() {
			got, ok := v.Get(d.Node)
			if !ok || got.Node != d.Node {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// countingMetric wraps a metric and counts its evaluations, to make cache
// hits and invalidations observable.
type countingMetric struct {
	inner profile.Metric
	calls int
}

func (c *countingMetric) Name() string { return c.inner.Name() }
func (c *countingMetric) Similarity(n, p *profile.Profile) float64 {
	c.calls++
	return c.inner.Similarity(n, p)
}
func (c *countingMetric) SimilarityPacked(n *profile.Profile, p *profile.Packed) float64 {
	c.calls++
	return c.inner.SimilarityPacked(n, p)
}

func TestSimilarityCacheSkipsRescoring(t *testing.T) {
	// The cache holds the survivors of the last trim: offering them again
	// costs no score, each loser offered again costs exactly one, and a self
	// mutation makes every candidate cost one.
	m := &countingMetric{inner: profile.WUP{}}
	self := profile.New()
	self.Set(1, 0, 1)
	self.Set(2, 0, 1)
	descs := make([]Descriptor, 0, 6)
	for i := news.NodeID(10); i < 16; i++ {
		descs = append(descs, desc(i, 0, 1, news.ID(i)))
	}
	v := NewView(3)
	v.InsertAll(descs, 0)
	rng := rand.New(rand.NewSource(4))
	v.TrimBySimilarity(rng, m, self)
	if m.calls != len(descs) {
		t.Fatalf("first trim scored %d candidates, want %d", m.calls, len(descs))
	}
	survivors := v.Entries()
	var losers []Descriptor
	for _, d := range descs {
		if !v.Contains(d.Node) {
			losers = append(losers, d)
		}
	}
	// Same self version, same snapshots: the survivors re-offered alone
	// (a batch that pushes the view past capacity) cost nothing.
	v.InsertAll(survivors, 0)
	v.Insert(losers[0])
	m.calls = 0
	v.TrimBySimilarity(rng, m, self)
	if m.calls != 1 {
		t.Fatalf("survivors plus one loser cost %d scores, want 1", m.calls)
	}
	v.InsertAll(descs, 0)
	m.calls = 0
	v.TrimBySimilarity(rng, m, self)
	if m.calls != len(descs)-v.Capacity() {
		t.Fatalf("re-offering every candidate cost %d scores, want one per loser (%d)", m.calls, len(descs)-v.Capacity())
	}
	// Mutating self bumps its version and must invalidate every score.
	self.Set(3, 1, 1)
	v.InsertAll(descs, 0)
	m.calls = 0
	v.TrimBySimilarity(rng, m, self)
	if m.calls != len(descs) {
		t.Fatalf("after a self mutation %d candidates were scored, want %d", m.calls, len(descs))
	}
}

func TestSimilarityCacheTransientTargetsBypass(t *testing.T) {
	// Per-item profiles (BEEP dislike orientation) are transient targets:
	// MostSimilar computes every score directly, whatever the cache holds,
	// and leaves the cached self scores in place.
	m := &countingMetric{inner: profile.WUP{}}
	self := profile.New()
	self.Set(1, 0, 1)
	descs := make([]Descriptor, 0, 4)
	for i := news.NodeID(10); i < 14; i++ {
		descs = append(descs, desc(i, 0, 1))
	}
	v := NewView(2)
	v.InsertAll(descs, 0)
	rng := rand.New(rand.NewSource(5))
	v.TrimBySimilarity(rng, m, self) // caches the 2 survivors' scores
	itemProfile := profile.New()
	itemProfile.Set(1, 0, 1)
	for _, target := range []*profile.Profile{itemProfile, self} {
		m.calls = 0
		if _, ok := v.MostSimilar(m, target); !ok || m.calls != v.Len() {
			t.Fatalf("MostSimilar scored %d of %d entries", m.calls, v.Len())
		}
	}
	v.InsertAll(descs, 0)
	m.calls = 0
	v.TrimBySimilarity(rng, m, self)
	if m.calls != len(descs)-v.Capacity() {
		t.Fatalf("MostSimilar disturbed the cached self scores: %d rescores, want %d", m.calls, len(descs)-v.Capacity())
	}
}

// cacheHoldsSurvivors reports why v's similarity cache is not what a trim
// leaves — at most capacity slots, each the snapshot of a resident entry with
// the exact score a direct evaluation against self gives — or "" if it is.
func cacheHoldsSurvivors(v *View, self *profile.Profile) string {
	if len(v.cache.slots) > v.capacity {
		return fmt.Sprintf("%d cached slots, capacity %d", len(v.cache.slots), v.capacity)
	}
	for _, s := range v.cache.slots {
		resident := false
		for _, d := range v.entries {
			resident = resident || d.Profile == s.prof
		}
		if !resident {
			return "the cache pins a snapshot no entry holds"
		}
		if direct := (profile.WUP{}).SimilarityPacked(self, s.prof); s.score != direct {
			return fmt.Sprintf("cached %v != direct %v", s.score, direct)
		}
	}
	return ""
}

func TestSimilarityCacheHoldsOnlySurvivors(t *testing.T) {
	// After every trim the cache holds the survivors and nothing else. Two
	// views merge on their own goroutines, borrowing ranked scratch from one
	// pool: a cache aliasing that scratch rather than copying out of it would
	// read the other view's scores (and race under -race).
	const capacity, rounds, nodes = 6, 200, 40
	var wg sync.WaitGroup
	for g := int64(0); g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := rand.New(rand.NewSource(g))
			v, self := NewView(capacity), profile.New()
			for round := int64(0); round < rounds; round++ {
				if ops.Intn(3) == 0 {
					self.Set(news.ID(ops.Intn(16)), round, float64(ops.Intn(2)))
				}
				if ops.Intn(5) == 0 {
					v.EvictOlderThan(round - 2)
				}
				for i, n := 0, ops.Intn(3*capacity); i < n; i++ {
					v.Insert(desc(news.NodeID(ops.Intn(nodes)), round-int64(ops.Intn(3)), news.ID(ops.Intn(16)), news.ID(ops.Intn(16))))
				}
				v.TrimBySimilarity(ops, profile.WUP{}, self)
				if why := cacheHoldsSurvivors(v, self); why != "" {
					t.Errorf("view %d round %d: %s", g, round, why)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSimilarityCacheBitIdenticalScores(t *testing.T) {
	// Every cached score must be the exact float a direct metric evaluation
	// produces — the invariant that makes the cache invisible to simulation
	// results. Exercised white-box over random views and targets, with fresh
	// candidates every round and across self-version bumps.
	randomProfile := func(rng *rand.Rand, n int) *profile.Profile {
		p := profile.New()
		for i := 0; i < n; i++ {
			p.Set(news.ID(rng.Int63n(30)), 0, float64(rng.Intn(2)))
		}
		return p
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		self := randomProfile(rng, 8)
		v := NewView(4)
		for round, node := 0, news.NodeID(0); round < 30; round++ {
			if round%7 == 6 {
				self.Set(news.ID(rng.Int63n(30)), int64(round), float64(rng.Intn(2))) // version bump: every score is stale
			}
			for i := 0; i < 12; i++ {
				v.Insert(Descriptor{Node: node, Stamp: int64(i % 3), Profile: snapshotOf(randomProfile(rng, 6))})
				node++
			}
			v.TrimBySimilarity(rng, profile.WUP{}, self) // (re)keys and fills the cache
			if !v.cache.keyedTo(self) || len(v.cache.slots) != v.capacity {
				t.Fatalf("seed %d round %d: cache not keyed to self, or %d slots", seed, round, len(v.cache.slots))
			}
			for _, d := range v.entries {
				cached := v.cache.lookup(profile.WUP{}, self, d)
				direct := profile.WUP{}.SimilarityPacked(self, d.Profile)
				if cached != direct {
					t.Fatalf("seed %d round %d node %d: cached %v != direct %v", seed, round, d.Node, cached, direct)
				}
			}
		}
	}
}

func TestAppendRandomSampleMatchesPermDraws(t *testing.T) {
	// AppendRandomSample must reproduce rng.Perm's draw sequence exactly:
	// same sample as the historical implementation, same rng state after.
	v := NewView(20)
	for i := news.NodeID(0); i < 10; i++ {
		v.Insert(desc(i, 0))
	}
	for seed := int64(0); seed < 30; seed++ {
		a := rand.New(rand.NewSource(seed))
		b := rand.New(rand.NewSource(seed))
		n := int(seed % 11)
		got := v.AppendRandomSample(nil, a, n)
		var want []Descriptor
		es := v.Entries()
		if n >= len(es) {
			want = es
		} else {
			for _, i := range b.Perm(len(es))[:n] {
				want = append(want, es[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: len %d want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].Node != want[i].Node {
				t.Fatalf("seed %d: sample[%d]=%d want %d", seed, i, got[i].Node, want[i].Node)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("seed %d: rng consumption diverged from rand.Perm", seed)
		}
	}
}

func TestForEachAndAppendEntriesMatchEntries(t *testing.T) {
	v := NewView(10)
	for i := news.NodeID(0); i < 7; i++ {
		v.Insert(desc(i, int64(i)))
	}
	want := v.Entries()
	var got []Descriptor
	v.ForEach(func(d Descriptor) { got = append(got, d) })
	appended := v.AppendEntries([]Descriptor{desc(99, 0)})
	if len(got) != len(want) || len(appended) != len(want)+1 {
		t.Fatalf("iteration lengths wrong: %d/%d/%d", len(got), len(want), len(appended))
	}
	for i := range want {
		if got[i].Node != want[i].Node || appended[i+1].Node != want[i].Node {
			t.Fatal("iteration order must match Entries")
		}
	}
}

func TestWireSize(t *testing.T) {
	// WireSize is exact: it must equal the length of the live codec's
	// encoding, so simulation bandwidth accounting (Figure 8b) and the wire
	// share one source of truth.
	for _, d := range []Descriptor{
		desc(1, 1, 1, 2, 3),
		desc(2, 0),
		{Node: 7, Stamp: 123456789, Profile: desc(7, 3, 9, 1000000).Profile},
		{Node: 3, Stamp: -1},
	} {
		if got, want := d.WireSize(), len(AppendDescriptor(nil, d)); got != want {
			t.Fatalf("WireSize=%d but encoded length=%d for %+v", got, want, d)
		}
	}
}

func TestEvictOlderThanPreservesOrderAndIndex(t *testing.T) {
	v := NewView(10)
	for i := news.NodeID(1); i <= 6; i++ {
		v.Insert(desc(i, int64(i*10), news.ID(i)))
	}
	if evicted := v.EvictOlderThan(35); evicted != 3 {
		t.Fatalf("evicted %d entries, want 3 (stamps 10,20,30)", evicted)
	}
	want := []news.NodeID{4, 5, 6}
	got := make([]news.NodeID, 0, 3)
	v.ForEach(func(d Descriptor) { got = append(got, d.Node) })
	for i, id := range want {
		if got[i] != id {
			t.Fatalf("survivor order %v, want %v (insertion order must be preserved)", got, want)
		}
	}
	for _, id := range want {
		d, ok := v.Get(id)
		if !ok || d.Node != id {
			t.Fatalf("index broken for node %d after eviction", id)
		}
	}
	for _, id := range []news.NodeID{1, 2, 3} {
		if v.Contains(id) {
			t.Fatalf("node %d should have been evicted", id)
		}
	}
	if v.EvictOlderThan(35) != 0 {
		t.Fatal("second eviction at the same horizon must be a no-op")
	}
	// Survivors must still be removable/insertable through the index.
	v.Remove(5)
	if v.Len() != 2 || v.Contains(5) {
		t.Fatal("Remove after eviction broke the view")
	}
}

func TestEvictOlderThanBoundary(t *testing.T) {
	v := NewView(5)
	v.Insert(desc(1, 10))
	v.Insert(desc(2, 11))
	if v.EvictOlderThan(10) != 0 {
		t.Fatal("entries stamped exactly at the horizon must survive (strictly-older rule)")
	}
	if v.EvictOlderThan(11) != 1 || v.Contains(1) {
		t.Fatal("entry below the horizon must go")
	}
	empty := NewView(3)
	if empty.EvictOlderThan(100) != 0 {
		t.Fatal("evicting an empty view must be a no-op")
	}
}

// snapshotOf is p packed, by address, as a descriptor holds it.
func snapshotOf(p *profile.Profile) *profile.Packed {
	pk := p.Pack()
	return &pk
}
