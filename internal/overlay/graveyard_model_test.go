package overlay

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"whatsup/internal/news"
)

// modelGraveyard is the reference the sorted-slice Graveyard is held to: a
// node → stamp map whose orders are sorted afresh on every read.
type modelGraveyard map[news.NodeID]int64

func (m modelGraveyard) note(t Tombstone) bool {
	if old, ok := m[t.Node]; ok && old >= t.Stamp {
		return false
	}
	m[t.Node] = t.Stamp
	return true
}

func (m modelGraveyard) expireOlderThan(minStamp int64) int {
	dropped := 0
	for id, stamp := range m {
		if stamp < minStamp {
			delete(m, id)
			dropped++
		}
	}
	return dropped
}

func (m modelGraveyard) byNode() []Tombstone {
	out := make([]Tombstone, 0, len(m))
	//whatsup:commutative sorted by node id below
	for id, stamp := range m {
		out = append(out, Tombstone{Node: id, Stamp: stamp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func (m modelGraveyard) freshest(max int) []Tombstone {
	out := m.byNode()
	if max <= 0 || max >= len(out) {
		return out
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Stamp > out[j].Stamp })
	return out[:max]
}

// randomList is a piggybacked list as Absorb meets it: a sender's whole set
// (sorted by node id), a sender's capped freshest-first set (unsorted), a
// superset of the receiver's own set that Absorb must adopt, or an arbitrary
// list with repeats. Every kind can carry the receiver itself and expired
// tombstones, which Absorb filters out.
func randomList(ops *rand.Rand, m modelGraveyard, nodes int, stamp int64) []Tombstone {
	var src Graveyard
	switch ops.Intn(4) {
	case 0:
		for j := ops.Intn(8); j > 0; j-- {
			src.Note(Tombstone{Node: news.NodeID(ops.Intn(nodes)), Stamp: stamp - int64(ops.Intn(6))})
		}
		return src.Active()
	case 1:
		for j := ops.Intn(8); j > 0; j-- {
			src.Note(Tombstone{Node: news.NodeID(ops.Intn(nodes)), Stamp: stamp - int64(ops.Intn(6))})
		}
		return src.Freshest(1 + ops.Intn(3))
	case 2:
		for _, t := range m.byNode() {
			src.Note(t)
		}
		for j := 1 + ops.Intn(3); j > 0; j-- {
			src.Note(Tombstone{Node: news.NodeID(ops.Intn(nodes)), Stamp: stamp})
		}
		return src.Active()
	default:
		list := make([]Tombstone, ops.Intn(6))
		for i := range list {
			list[i] = Tombstone{Node: news.NodeID(ops.Intn(nodes)), Stamp: stamp - int64(ops.Intn(6))}
		}
		return list
	}
}

// TestGraveyardMatchesMapBackedModel drives the Graveyard and the map-backed
// model through the same random Note/Absorb/ExpireOlderThan/Clear sequences:
// after every operation both report the same results (Absorb's is whether
// the model's set differs from before) and the same
// membership, size, full piggyback and capped piggyback at caps that do and
// do not truncate. A whole-list Absorb must leave what a Note loop over the
// list's applicable tombstones leaves, and adopt the list whenever all of it
// applies and it changes the set to exactly the list. Every piggyback slice handed out and every list
// absorbed earlier in the sequence must still hold its bytes after every
// later step: published arrays are never written.
func TestGraveyardMatchesMapBackedModel(t *testing.T) {
	const nodes = 24
	type held struct{ got, want []Tombstone }
	adopted := 0
	for seed := int64(0); seed < 40; seed++ {
		ops := rand.New(rand.NewSource(seed))
		var g Graveyard
		m := modelGraveyard{}
		stamp := int64(0)
		var published []held
		publish := func(s []Tombstone) { published = append(published, held{s, slices.Clone(s)}) }
		for step := 0; step < 300; step++ {
			var op string
			switch k := ops.Intn(24); {
			case k < 12:
				op = "Note"
				stamp += int64(ops.Intn(2))
				tb := Tombstone{Node: news.NodeID(ops.Intn(nodes)), Stamp: stamp - int64(ops.Intn(5))}
				if got, want := g.Note(tb), m.note(tb); got != want {
					t.Fatalf("seed %d step %d: Note(%v) = %v, model %v", seed, step, tb, got, want)
				}
			case k < 18:
				op = "Absorb"
				list := randomList(ops, m, nodes, stamp)
				self, minStamp := news.NodeID(nodes), int64(math.MinInt64)
				if ops.Intn(2) == 0 {
					self, minStamp = news.NodeID(ops.Intn(nodes)), stamp-int64(ops.Intn(6))
				}
				publish(list)
				before := m.byNode()
				changed := g.Absorb(list, self, minStamp)
				applies := true
				for _, tb := range list {
					if tb.Applies(self, minStamp) {
						m.note(tb)
					} else {
						applies = false
					}
				}
				after := m.byNode()
				if want := !slices.Equal(before, after); changed != want {
					t.Fatalf("seed %d step %d: Absorb(%v) reported changed %v, model %v", seed, step, list, changed, want)
				}
				if got := g.Active(); applies && changed && slices.Equal(after, list) {
					if &got[0] != &list[0] {
						t.Fatalf("seed %d step %d: Absorb(%v) changed the set to exactly the list but copied it", seed, step, list)
					}
					adopted++
				}
			case k < 23:
				op = "ExpireOlderThan"
				horizon := stamp - int64(ops.Intn(8))
				if got, want := g.ExpireOlderThan(horizon), m.expireOlderThan(horizon); got != want {
					t.Fatalf("seed %d step %d: ExpireOlderThan(%d) dropped %d, model %d", seed, step, horizon, got, want)
				}
			default:
				op = "Clear"
				g.Clear()
				clear(m)
			}
			if g.Len() != len(m) {
				t.Fatalf("seed %d step %d (%s): Len %d, model %d", seed, step, op, g.Len(), len(m))
			}
			for id := news.NodeID(0); id < nodes; id++ {
				if _, want := m[id]; g.Contains(id) != want {
					t.Fatalf("seed %d step %d (%s): Contains(%d) = %v, model %v", seed, step, op, id, !want, want)
				}
			}
			if got, want := g.Active(), m.byNode(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s): Active %v, model %v", seed, step, op, got, want)
			}
			for _, max := range []int{0, 1, 3, len(m), len(m) + 2} {
				if got, want := g.Freshest(max), m.freshest(max); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): Freshest(%d) %v, model %v", seed, step, op, max, got, want)
				}
			}
			publish(g.Active())
			publish(g.Freshest(3))
			for i, h := range published {
				if !slices.Equal(h.got, h.want) {
					t.Fatalf("seed %d step %d (%s): piggyback %d was written after it was handed out: %v, was %v", seed, step, op, i, h.got, h.want)
				}
			}
		}
	}
	if adopted == 0 {
		t.Fatal("no Absorb adopted its list; the adoption check checks nothing")
	}
	t.Logf("%d absorbs adopted their list", adopted)
}
