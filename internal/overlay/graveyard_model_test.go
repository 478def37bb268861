package overlay

import (
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

// TestGraveyardMatchesMapBackedModel drives the Graveyard and the map-backed
// model through the same random Note/ExpireOlderThan/Clear sequences: after
// every operation both report the same results and the same membership, size,
// full piggyback and capped piggyback at caps that do and do not truncate.
func TestGraveyardMatchesMapBackedModel(t *testing.T) {
	const nodes = 24
	for seed := int64(0); seed < 40; seed++ {
		ops := rand.New(rand.NewSource(seed))
		var g Graveyard
		m := modelGraveyard{}
		stamp := int64(0)
		for step := 0; step < 300; step++ {
			var op string
			switch k := ops.Intn(20); {
			case k < 14:
				op = "Note"
				stamp += int64(ops.Intn(2))
				tb := Tombstone{Node: news.NodeID(ops.Intn(nodes)), Stamp: stamp - int64(ops.Intn(5))}
				if got, want := g.Note(tb), m.note(tb); got != want {
					t.Fatalf("seed %d step %d: Note(%v) = %v, model %v", seed, step, tb, got, want)
				}
			case k < 19:
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
			if got, want := g.AppendActive(nil), m.byNode(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s): AppendActive %v, model %v", seed, step, op, got, want)
			}
			for _, max := range []int{0, 1, 3, len(m), len(m) + 2} {
				if got, want := g.AppendFreshest(nil, max), m.freshest(max); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): AppendFreshest(%d) %v, model %v", seed, step, op, max, got, want)
				}
			}
		}
	}
}
