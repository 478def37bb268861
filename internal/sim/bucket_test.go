package sim

import (
	"math/rand"
	"slices"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/news"
)

// rpsOnlyPeer is a peer without the clustering layer, as a random-gossip
// baseline is: it answers RPS pushes and never WUP ones.
type rpsOnlyPeer struct{ core.Substrate }

func (*rpsOnlyPeer) BeginCycle(int64)                     {}
func (*rpsOnlyPeer) InjectRPSCandidates()                 {}
func (*rpsOnlyPeer) Publish(news.Item, int64) []core.Send { return nil }
func (*rpsOnlyPeer) Receive(core.ItemMessage, int64) (core.Delivery, []core.Send) {
	return core.Delivery{}, nil
}

// bucketModel is bucketByResponder written plainly, over a map and a list
// per bucket: the successful pushes grouped by responder, initiators in
// table order, buckets in first-contact order.
func bucketModel(e *Engine, exs []exchange, layer core.Layer) (order []news.NodeID, lists [][]int32) {
	bucketOf := map[news.NodeID]int{}
	for i, ex := range exs {
		if !ex.ok || ex.lost {
			continue
		}
		r := e.onlinePeer(ex.target)
		if r == nil || !r.Overlay().Has(layer) {
			continue
		}
		b, seen := bucketOf[ex.target]
		if !seen {
			b = len(order)
			bucketOf[ex.target] = b
			order = append(order, ex.target)
			lists = append(lists, nil)
		}
		lists[b] = append(lists[b], int32(i))
	}
	return order, lists
}

// TestBucketByResponderMatchesModel compares the engine's flat buckets with
// bucketModel on random exchange tables, seeds 1–20: node ids scattered
// far from [0, n), members online, offline and departed, some without the
// clustering layer, and pushes that are lost, missing or aimed at an id no
// member has. Each engine buckets several tables for both layers, so stale
// scratch from an earlier round would show.
func TestBucketByResponderMatchesModel(t *testing.T) {
	var lost, absent, offline, departed, noLayer, bucketed int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		ids := make([]news.NodeID, n)
		for g, v := range rng.Perm(50 * n)[:n] {
			ids[g] = news.NodeID(1000 + 7*v)
		}
		peers := make([]Peer, n)
		for g, id := range ids {
			if rng.Intn(5) == 0 {
				peers[g] = &rpsOnlyPeer{core.NewSubstrate(id, core.Config{RPSViewSize: 4}, rng)}
			} else {
				peers[g] = core.NewNode(id, "", core.Config{FLike: 3}, nil, rng)
			}
		}
		e := New(Config{Seed: seed, Workers: 1}, peers, nil)
		for g := range e.mem.states {
			switch rng.Intn(6) {
			case 0:
				e.mem.states[g] = Offline
			case 1:
				e.mem.states[g] = Departed
			}
		}
		for round := 0; round < 4; round++ {
			exs := make([]exchange, n)
			for i := range exs {
				if rng.Intn(8) == 0 {
					continue // no push this round
				}
				exs[i] = exchange{ok: true, lost: rng.Intn(6) == 0, target: ids[rng.Intn(n)]}
				if rng.Intn(10) == 0 {
					exs[i].target = news.NodeID(rng.Intn(1000)) // no member has it
				}
			}
			for _, layer := range []core.Layer{core.RPSLayer, core.WUPLayer} {
				wantOrder, wantLists := bucketModel(e, exs, layer)
				order := slices.Clone(e.bucketByResponder(exs, layer))
				if !slices.Equal(order, wantOrder) {
					t.Fatalf("seed %d round %d layer %d: order %v, want %v", seed, round, layer, order, wantOrder)
				}
				for b := range order {
					if got := e.bucket(b); !slices.Equal(got, wantLists[b]) {
						t.Fatalf("seed %d round %d layer %d: bucket %d (responder %d) holds %v, want %v", seed, round, layer, b, order[b], got, wantLists[b])
					}
				}
				for _, list := range wantLists {
					bucketed += len(list)
				}
			}
			for _, ex := range exs {
				g, known := e.mem.idx[ex.target]
				switch {
				case !ex.ok:
				case ex.lost:
					lost++
				case !known:
					absent++
				case e.mem.states[g] == Offline:
					offline++
				case e.mem.states[g] == Departed:
					departed++
				case !e.mem.members[g].Overlay().Has(core.WUPLayer):
					noLayer++
				}
			}
		}
	}
	if lost == 0 || absent == 0 || offline == 0 || departed == 0 || noLayer == 0 || bucketed == 0 {
		t.Fatalf("the tables miss a case: %d lost, %d absent, %d offline, %d departed, %d without the layer, %d bucketed",
			lost, absent, offline, departed, noLayer, bucketed)
	}
}
