package overlay

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/profile"
)

// modelView is the reference the index-free View is held to: the same rules
// over an entry slice and a node → position map, scored without a cache.
type modelView struct {
	capacity int
	entries  []Descriptor
	index    map[news.NodeID]int
}

func (m *modelView) insert(d Descriptor) {
	if i, ok := m.index[d.Node]; ok {
		if d.Fresher(m.entries[i]) {
			m.entries[i] = d
		}
		return
	}
	m.index[d.Node] = len(m.entries)
	m.entries = append(m.entries, d)
}

func (m *modelView) insertAllLive(batch []Descriptor, exclude news.NodeID, g *Graveyard) {
	for _, d := range batch {
		if d.Node != exclude && !g.Contains(d.Node) {
			m.insert(d)
		}
	}
}

func (m *modelView) remove(id news.NodeID) {
	i, ok := m.index[id]
	if !ok {
		return
	}
	last := len(m.entries) - 1
	m.entries[i] = m.entries[last]
	m.index[m.entries[i].Node] = i
	m.entries = m.entries[:last]
	delete(m.index, id)
}

func (m *modelView) reindex() {
	clear(m.index)
	for i, d := range m.entries {
		m.index[d.Node] = i
	}
}

func (m *modelView) evictOlderThan(minStamp int64) int {
	before := len(m.entries)
	m.entries = slices.DeleteFunc(m.entries, func(d Descriptor) bool { return d.Stamp < minStamp })
	m.reindex()
	return before - len(m.entries)
}

func (m *modelView) trimRandom(rng *rand.Rand) {
	for len(m.entries) > m.capacity {
		m.remove(m.entries[rng.Intn(len(m.entries))].Node)
	}
}

func (m *modelView) trimBySimilarity(rng *rand.Rand, metric profile.Metric, self *profile.Profile) {
	if len(m.entries) <= m.capacity {
		return
	}
	ranked := make([]scored, len(m.entries))
	for i, d := range m.entries {
		ranked[i] = scored{d, metric.SimilarityPacked(self, d.Profile)}
	}
	rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	slices.SortStableFunc(ranked, func(a, b scored) int {
		switch {
		case a.s > b.s:
			return -1
		case a.s < b.s:
			return 1
		}
		return 0
	})
	m.entries = m.entries[:0]
	for _, r := range ranked[:m.capacity] {
		m.entries = append(m.entries, r.d)
	}
	m.reindex()
}

// pinnedPastUse counts the profile snapshots still reachable from the parts
// of a view's backing arrays that hold no entry: entries[len:cap] and, while
// a merge has scratch borrowed, the emptied resident array and the whole trim
// scratch.
func pinnedPastUse(v *View) int {
	n := profilesIn(v.entries[len(v.entries):cap(v.entries)])
	if s := v.merge; s != nil {
		n += profilesIn(s.home[:cap(s.home)]) + rankedIn(s.ranked[:cap(s.ranked)])
	}
	return n
}

// pinnedByReturned counts the profile snapshots a scratch returned to the
// pool still reaches: its union and ranked backing arrays must be cleared and
// it must no longer point at the view's resident array.
func pinnedByReturned(s *mergeScratch) int {
	return profilesIn(s.union[:cap(s.union)]) + profilesIn(s.home[:cap(s.home)]) + rankedIn(s.ranked[:cap(s.ranked)])
}

func profilesIn(ds []Descriptor) int {
	n := 0
	for _, d := range ds {
		if d.Profile != nil {
			n++
		}
	}
	return n
}

func rankedIn(rs []scored) int {
	n := 0
	for _, r := range rs {
		if r.d.Profile != nil {
			n++
		}
	}
	return n
}

// TestViewMatchesMapBackedModel drives the View and the map-backed model
// through the same random mutator sequences on identically seeded rngs: after
// every operation both hold the same descriptors in the same order, both
// consumed the same draws, and the View pins nothing past its use: after a
// trim it holds no borrowed scratch, its resident array is exactly capacity,
// and the scratch it returned reaches no descriptor.
func TestViewMatchesMapBackedModel(t *testing.T) {
	const capacity, nodes = 8, 40
	for seed := int64(0); seed < 40; seed++ {
		ops := rand.New(rand.NewSource(seed))
		rv, rm := rand.New(rand.NewSource(seed+1000)), rand.New(rand.NewSource(seed+1000))
		v := NewView(capacity)
		m := &modelView{capacity: capacity, index: make(map[news.NodeID]int)}
		var grave Graveyard
		self := profile.New()
		stamp := int64(0)
		fresh := func() Descriptor {
			stamp += int64(ops.Intn(2))
			return desc(news.NodeID(ops.Intn(nodes)), stamp-int64(ops.Intn(4)), news.ID(ops.Intn(12)), news.ID(ops.Intn(12)))
		}
		for step := 0; step < 400; step++ {
			var op string
			borrowed := v.merge
			switch k := ops.Intn(10); {
			case k < 2:
				op = "Insert"
				d := fresh()
				v.Insert(d)
				m.insert(d)
			case k < 5:
				op = "InsertAllLive"
				batch := make([]Descriptor, 1+ops.Intn(2*capacity))
				for i := range batch {
					batch[i] = fresh()
				}
				exclude := news.NodeID(ops.Intn(nodes))
				v.InsertAllLive(batch, exclude, &grave)
				m.insertAllLive(batch, exclude, &grave)
			case k < 6:
				op = "Remove"
				id := news.NodeID(ops.Intn(nodes))
				v.Remove(id)
				m.remove(id)
			case k < 7:
				op = "EvictOlderThan"
				horizon := stamp - int64(ops.Intn(6))
				if got, want := v.EvictOlderThan(horizon), m.evictOlderThan(horizon); got != want {
					t.Fatalf("seed %d step %d: EvictOlderThan evicted %d, model %d", seed, step, got, want)
				}
			case k < 8:
				op = "TrimRandom"
				v.TrimRandom(rv)
				m.trimRandom(rm)
			default:
				op = "TrimBySimilarity"
				if ops.Intn(3) == 0 {
					self.Set(news.ID(ops.Intn(12)), stamp, float64(ops.Intn(2)))
				}
				v.TrimBySimilarity(rv, profile.WUP{}, self)
				m.trimBySimilarity(rm, profile.WUP{}, self)
			}
			if ops.Intn(25) == 0 { // a departure the later merges must filter
				grave.Note(Tombstone{Node: news.NodeID(ops.Intn(nodes)), Stamp: stamp})
			}
			if !slices.Equal(v.entries, m.entries) {
				t.Fatalf("seed %d step %d (%s): view %v, model %v", seed, step, op, v.Nodes(), m.entries)
			}
			if n := pinnedPastUse(v); n != 0 {
				t.Fatalf("seed %d step %d (%s): %d profile snapshots pinned past their use", seed, step, op, n)
			}
			if strings.HasPrefix(op, "Trim") {
				if v.merge != nil || cap(v.entries) != capacity {
					t.Fatalf("seed %d step %d (%s): after a trim the view holds scratch %v and an array of cap %d, want none and %d",
						seed, step, op, v.merge != nil, cap(v.entries), capacity)
				}
				if borrowed != nil {
					if n := pinnedByReturned(borrowed); n != 0 {
						t.Fatalf("seed %d step %d (%s): returned scratch still reaches %d profile snapshots", seed, step, op, n)
					}
				}
			}
			for _, d := range m.entries {
				if got, ok := v.Get(d.Node); !ok || got != d || !v.Contains(d.Node) {
					t.Fatalf("seed %d step %d (%s): Get(%d) = %v, %v", seed, step, op, d.Node, got, ok)
				}
			}
		}
		if rv.Int63() != rm.Int63() {
			t.Fatalf("seed %d: view and model consumed different draws", seed)
		}
	}
}

// TestViewPinsNoProfilePastItsUse names the mutator when one leaves a
// departed descriptor's profile reachable from a backing array.
func TestViewPinsNoProfilePastItsUse(t *testing.T) {
	self := profile.New()
	self.Set(1, 0, 1)
	rng := rand.New(rand.NewSource(3))
	mutators := []struct {
		name string
		run  func(v *View)
	}{
		{"Remove", func(v *View) { v.Remove(7); v.Remove(29) }},
		{"EvictOlderThan", func(v *View) { v.EvictOlderThan(12) }},
		{"TrimRandom", func(v *View) { v.TrimRandom(rng) }},
		{"TrimBySimilarity", func(v *View) { v.TrimBySimilarity(rng, profile.WUP{}, self) }},
		{"Insert after a trim", func(v *View) {
			v.TrimBySimilarity(rng, profile.WUP{}, self)
			v.Insert(desc(99, 50, 1))
			v.Insert(desc(3, 60, 2)) // replaces or appends
		}},
	}
	for _, mu := range mutators {
		v := NewView(5)
		for i := news.NodeID(0); i < 30; i++ {
			v.Insert(desc(i, int64(i), news.ID(i%4)))
		}
		borrowed := v.merge
		mu.run(v)
		if n := pinnedPastUse(v); n != 0 {
			t.Errorf("%s: %d profile snapshots pinned past their use", mu.name, n)
		}
		if v.merge == nil {
			if n := pinnedByReturned(borrowed); n != 0 {
				t.Errorf("%s: returned scratch still reaches %d profile snapshots", mu.name, n)
			}
		}
	}
}

// TestConcurrentMergesMatchSerial merges distinct views on two goroutines at
// once, as a Workers 2 sim round and a live fleet's node goroutines do, all
// borrowing from the one scratch pool: every view must end with exactly the
// entries, in the same order, that the same merges give run one at a time.
func TestConcurrentMergesMatchSerial(t *testing.T) {
	const views, rounds, capacity, nodes = 2, 300, 8, 60
	run := func(concurrent bool) [views][]byte {
		var out [views][]byte
		var wg sync.WaitGroup
		for g := 0; g < views; g++ {
			merge := func() {
				ops := rand.New(rand.NewSource(int64(g)))
				rng := rand.New(rand.NewSource(int64(100 + g)))
				v, r := NewView(capacity), NewView(capacity+4)
				self := profile.New()
				for round := int64(0); round < rounds; round++ {
					batch := make([]Descriptor, 1+ops.Intn(3*capacity))
					for i := range batch {
						batch[i] = desc(news.NodeID(ops.Intn(nodes)), round-int64(ops.Intn(3)), news.ID(ops.Intn(16)), news.ID(ops.Intn(16)))
					}
					self.Set(news.ID(ops.Intn(16)), round, float64(ops.Intn(2)))
					v.InsertAll(batch, news.NodeID(g))
					v.TrimBySimilarity(rng, profile.WUP{}, self)
					r.InsertAll(batch, news.NodeID(g))
					r.TrimRandom(rng)
					v.InsertAll(v.AppendRandomSample(nil, rng, capacity/2), news.NoNode)
					v.InsertAll(r.AppendRandomSample(nil, rng, capacity/2), news.NoNode)
					v.TrimBySimilarity(rng, profile.WUP{}, self)
				}
				out[g] = AppendDescriptors(AppendDescriptors(nil, v.Entries()), r.Entries())
			}
			if !concurrent {
				merge()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				merge()
			}()
		}
		wg.Wait()
		return out
	}
	serial, concurrent := run(false), run(true)
	for g := range serial {
		if !bytes.Equal(serial[g], concurrent[g]) {
			t.Fatalf("view %d: concurrent merges kept %x, serial %x", g, concurrent[g], serial[g])
		}
	}
}
