package core

import (
	"math/rand"
	"slices"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// testSubstrate builds a bare substrate; wupSize 0 gives the homogeneous-
// gossip shape (no clustering layer, no profile window).
func testSubstrate(id news.NodeID, wupSize int, ttl int64) *Substrate {
	cfg := Config{RPSViewSize: 6, WUPViewSize: wupSize, DescriptorTTL: ttl}
	if wupSize > 0 {
		cfg.Metric, cfg.ProfileWindow = profile.WUP{}, 50
	}
	s := NewSubstrate(id, cfg, rand.New(rand.NewSource(int64(id)+1)))
	return &s
}

func nodesOf(descs []overlay.Descriptor) []news.NodeID {
	out := make([]news.NodeID, 0, len(descs))
	for _, d := range descs {
		out = append(out, d.Node)
	}
	return out
}

// TestAcceptLegs is the one table for the rules every accept leg shares, run
// against each of the six legs a runtime can deliver (RPS/WUP push and reply,
// refill request and reply): piggybacked tombstones are absorbed before the
// descriptors they rode with are merged, and the DescriptorTTL horizon is
// re-applied at ingestion against the receiver's own clock.
func TestAcceptLegs(t *testing.T) {
	const now, ttl = 20, 5
	type leg struct {
		name string
		// accept delivers the batch; reply is nil for legs that answer nothing.
		accept func(s *Substrate, batch []overlay.Descriptor, tombs []overlay.Tombstone) (reply []overlay.Descriptor)
		tombs  bool // the leg carries tombstones (refill legs do not)
		// merged lists the views the leg folds the batch into.
		merged func(s *Substrate) []*overlay.View
	}
	rpsView := func(s *Substrate) []*overlay.View { return []*overlay.View{s.RPS().View()} }
	wupView := func(s *Substrate) []*overlay.View { return []*overlay.View{s.WUP().View()} }
	legs := []leg{
		{"rps-push", func(s *Substrate, b []overlay.Descriptor, tb []overlay.Tombstone) []overlay.Descriptor {
			r, _ := s.AcceptPush(RPSLayer, nil, b, tb, now)
			return r
		}, true, rpsView},
		{"wup-push", func(s *Substrate, b []overlay.Descriptor, tb []overlay.Tombstone) []overlay.Descriptor {
			r, _ := s.AcceptPush(WUPLayer, nil, b, tb, now)
			return r
		}, true, wupView},
		{"rps-reply", func(s *Substrate, b []overlay.Descriptor, tb []overlay.Tombstone) []overlay.Descriptor {
			s.AcceptReply(RPSLayer, b, tb, now)
			return nil
		}, true, rpsView},
		{"wup-reply", func(s *Substrate, b []overlay.Descriptor, tb []overlay.Tombstone) []overlay.Descriptor {
			s.AcceptReply(WUPLayer, b, tb, now)
			return nil
		}, true, wupView},
		{"refill-request", func(s *Substrate, b []overlay.Descriptor, _ []overlay.Tombstone) []overlay.Descriptor {
			return s.AcceptRefill(nil, b, now)
		}, false, rpsView},
		{"refill-reply", func(s *Substrate, b []overlay.Descriptor, _ []overlay.Tombstone) []overlay.Descriptor {
			s.AcceptRefillReply(b, 1, now) // watermark 1: the WUP view counts as starved
			return nil
		}, false, func(s *Substrate) []*overlay.View { return []*overlay.View{s.RPS().View(), s.WUP().View()} }},
	}
	for _, l := range legs {
		if l.tombs {
			t.Run(l.name+"/tombstone-before-merge", func(t *testing.T) {
				s := testSubstrate(1, 4, ttl)
				s.SeedViews([]overlay.Descriptor{descFor(7, now-1), descFor(8, now-1)})
				reply := l.accept(s,
					[]overlay.Descriptor{descFor(7, now), descFor(9, now)},
					[]overlay.Tombstone{{Node: 7, Stamp: now}})
				if s.RPS().View().Contains(7) || s.WUP().View().Contains(7) {
					t.Fatal("a descriptor tombstoned in the same message re-entered a view")
				}
				if slices.Contains(nodesOf(reply), 7) {
					t.Fatal("the reply was sampled before the tombstone evicted the leaver")
				}
				for _, v := range l.merged(s) {
					if !v.Contains(8) || !v.Contains(9) {
						t.Fatalf("only the tombstoned node may be dropped, view holds %v", v.Nodes())
					}
				}
				if tombs := s.Tombstones(); len(tombs) != 1 || tombs[0].Node != 7 {
					t.Fatalf("the absorbed tombstone must keep propagating, got %v", tombs)
				}
			})
		}
		t.Run(l.name+"/horizon-at-ingestion", func(t *testing.T) {
			s := testSubstrate(1, 4, ttl)
			// A sender one tick behind still gossips a descriptor its own
			// BeginCycle has not evicted yet.
			l.accept(s, []overlay.Descriptor{descFor(7, now-ttl-1), descFor(9, now-ttl)}, nil)
			for _, v := range l.merged(s) {
				if v.Contains(7) {
					t.Fatal("a descriptor past the receiver's horizon entered the view")
				}
				if !v.Contains(9) {
					t.Fatal("a descriptor stamped exactly now-TTL must survive")
				}
			}
		})
	}

	t.Run("horizon-off-without-ttl", func(t *testing.T) {
		s := testSubstrate(1, 4, 0)
		s.AcceptReply(RPSLayer, []overlay.Descriptor{descFor(7, 0)}, nil, now)
		if !s.RPS().View().Contains(7) {
			t.Fatal("without a DescriptorTTL nothing is ever evicted")
		}
	})
}

// TestMakePushCarriesTombstones: a push targets the oldest entry and takes
// the active tombstones along; the reply takes the responder's back.
func TestMakePushCarriesTombstones(t *testing.T) {
	for _, l := range []Layer{RPSLayer, WUPLayer} {
		s := testSubstrate(1, 4, 10)
		if _, _, _, ok := s.MakePush(l, nil, 5); ok {
			t.Fatal("an empty view has nobody to push to")
		}
		s.SeedViews([]overlay.Descriptor{descFor(2, 3), descFor(3, 1), descFor(4, 2)})
		s.NoteDeparture(overlay.Tombstone{Node: 9, Stamp: 5}, 5)
		target, push, tombs, ok := s.MakePush(l, nil, 5)
		if !ok || target != 3 {
			t.Fatalf("layer %d: target %d ok=%v, want the oldest entry 3", l, target, ok)
		}
		if push[0].Node != 1 || push[0].Stamp != 5 {
			t.Fatalf("layer %d: the push must lead with the fresh self-descriptor, got %+v", l, push[0])
		}
		if len(tombs) != 1 || tombs[0].Node != 9 {
			t.Fatalf("layer %d: push tombstones %v, want [9]", l, tombs)
		}
		if _, replyTombs := s.AcceptPush(l, nil, nil, nil, 5); len(replyTombs) != 1 {
			t.Fatalf("layer %d: the reply must carry the responder's tombstones, got %v", l, replyTombs)
		}
	}
}

// TestRefillDecision pins the refill rule: due when either view is under the
// watermark, aimed at the freshest neighbour across both views, and merged
// into the clustering view only while that view is itself starved.
func TestRefillDecision(t *testing.T) {
	fill := func(s *Substrate, rps, wup []overlay.Descriptor) {
		s.RPS().Seed(rps)
		if s.WUP() != nil {
			s.WUP().Seed(wup, s.UserProfile())
		}
	}
	full := []overlay.Descriptor{descFor(2, 1), descFor(3, 2), descFor(4, 3), descFor(5, 4)}
	cases := []struct {
		name       string
		wupSize    int
		rps, wup   []overlay.Descriptor
		wantTarget news.NodeID
		wantOK     bool
	}{
		{"both-full", 4, full, full, 0, false},
		{"isolated", 4, nil, nil, 0, false},
		{"rps-low-freshest-in-wup", 4, full[:1], []overlay.Descriptor{descFor(6, 9), descFor(7, 8), descFor(8, 7)}, 6, true},
		{"wup-low-freshest-in-rps", 4, full, full[:1], 5, true},
		{"stamp-tie-breaks-by-id", 4, []overlay.Descriptor{descFor(9, 5), descFor(3, 5)}, nil, 3, true},
		{"no-clustering-layer-full", 0, full, nil, 0, false},
		{"no-clustering-layer-low", 0, full[:2], nil, 3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testSubstrate(1, c.wupSize, 0)
			fill(s, c.rps, c.wup)
			target, ok := s.RefillTarget(0.5)
			if ok != c.wantOK || target != c.wantTarget {
				t.Fatalf("RefillTarget = %d, %v; want %d, %v", target, ok, c.wantTarget, c.wantOK)
			}
		})
	}

	reply := []overlay.Descriptor{descFor(20, 5), descFor(21, 5)}
	starved := testSubstrate(1, 4, 0)
	fill(starved, full[:1], full[:1])
	starved.AcceptRefillReply(reply, 0.5, 6)
	if !starved.RPS().View().Contains(20) || !starved.WUP().View().Contains(20) {
		t.Fatal("a starved node must merge the refill reply into both views")
	}
	fed := testSubstrate(1, 4, 0)
	fill(fed, full[:1], full)
	fed.AcceptRefillReply(reply, 0.5, 6)
	if !fed.RPS().View().Contains(20) {
		t.Fatal("the refill reply always feeds the RPS view")
	}
	if fed.WUP().View().Contains(20) || fed.WUP().View().Contains(21) {
		t.Fatal("a clustering view above the watermark must not absorb the refill reply")
	}

	responder := testSubstrate(30, 4, 0)
	fill(responder, full, full)
	answer := responder.AcceptRefill(nil, []overlay.Descriptor{descFor(1, 6)}, 6)
	if answer[0].Node != 30 || len(answer) != 1+len(full)/2 {
		t.Fatalf("a refill answer is an RPS-style reply (self + half the view), got %v", nodesOf(answer))
	}
	if !responder.RPS().View().Contains(1) {
		t.Fatal("the responder must merge the puller's descriptor")
	}
}

// TestFarewellRecipients: RPS neighbours first, then the WUP neighbours not
// already listed, both in view order.
func TestFarewellRecipients(t *testing.T) {
	s := testSubstrate(1, 4, 0)
	s.RPS().Seed([]overlay.Descriptor{descFor(5, 1), descFor(3, 1), descFor(8, 1)})
	s.WUP().Seed([]overlay.Descriptor{descFor(9, 1), descFor(3, 1), descFor(2, 1)}, s.UserProfile())
	if got, want := s.FarewellRecipients(), []news.NodeID{5, 3, 8, 9, 2}; !slices.Equal(got, want) {
		t.Fatalf("FarewellRecipients = %v, want %v", got, want)
	}
	g := testSubstrate(1, 0, 0)
	g.RPS().Seed([]overlay.Descriptor{descFor(4, 1), descFor(2, 1)})
	if got, want := g.FarewellRecipients(), []news.NodeID{4, 2}; !slices.Equal(got, want) {
		t.Fatalf("without a clustering layer FarewellRecipients = %v, want %v", got, want)
	}
	if len(testSubstrate(1, 4, 0).FarewellRecipients()) != 0 {
		t.Fatal("an isolated leaver notifies nobody")
	}
}

// TestSubstrateWithoutClusteringLayer: the homogeneous-gossip configuration
// (nil layer, window 0) goes through the whole lifecycle on the RPS alone and
// never purges its profile.
func TestSubstrateWithoutClusteringLayer(t *testing.T) {
	s := testSubstrate(1, 0, 0)
	if s.Has(WUPLayer) || !s.Has(RPSLayer) || s.WUP() != nil {
		t.Fatal("WUPViewSize 0 must build no clustering layer")
	}
	s.UserProfile().Set(42, 0, 1)
	s.SeedViews([]overlay.Descriptor{descFor(2, 1), descFor(3, 1)})
	s.InjectRPSCandidates()
	s.BeginCycle(1000)
	if s.UserProfile().Len() != 1 {
		t.Fatal("ProfileWindow 0 means the profile is never purged")
	}
	s.NoteDeparture(overlay.Tombstone{Node: 2, Stamp: 1000}, 1000)
	if s.RPS().View().Contains(2) {
		t.Fatal("a departure notice must evict from the RPS view")
	}
	s.Crash()
	if s.RPS().View().Len() != 0 || len(s.Tombstones()) != 0 {
		t.Fatal("Crash must wipe the view and the tombstones")
	}
	s.Rejoin([]overlay.Descriptor{descFor(4, 1000)}, 1000)
	if !s.RPS().View().Contains(4) || s.UserProfile().Len() != 1 {
		t.Fatal("Rejoin must re-seed the view and keep the windowless profile")
	}
}

// TestGossipLegAllocsPinned pins the gossip legs' allocations exactly, on a
// node whose graveyard is not empty and whose profile version does not
// change: a push built into a buffer that has the room allocates nothing,
// nor does answering one whose piggyback adds nothing — the tombstones ride
// as the graveyard's own array both ways — and absorbing a piggyback costs
// nothing when the graveyard adopts the list and one exact-size array when
// it has to merge.
func TestGossipLegAllocsPinned(t *testing.T) {
	const now, runs = 20, 100
	s := testSubstrate(1, 4, 50)
	var seed []overlay.Descriptor
	for id := news.NodeID(2); id < 12; id++ {
		seed = append(seed, descFor(id, now-1, news.ID(id)))
	}
	s.SeedViews(seed)
	s.NoteDeparture(overlay.Tombstone{Node: 40, Stamp: now}, now)
	s.NoteDeparture(overlay.Tombstone{Node: 41, Stamp: now}, now)
	buf := make([]overlay.Descriptor, 0, 64)
	push := []overlay.Descriptor{descFor(12, now, 12), descFor(13, now, 13)}
	for _, l := range []Layer{RPSLayer, WUPLayer} {
		if n := testing.AllocsPerRun(runs, func() {
			if _, _, tombs, ok := s.MakePush(l, buf[:0], now); !ok || len(tombs) != 2 {
				t.Fatal("the push must go out with the two tombstones")
			}
		}); n != 0 {
			t.Errorf("layer %d: MakePush into a buffer with room: %v allocs/op, want 0", l, n)
		}
		known := s.Tombstones()
		if n := testing.AllocsPerRun(runs, func() { s.AcceptPush(l, buf[:0], push, known, now) }); n != 0 {
			t.Errorf("layer %d: AcceptPush into a buffer with room, piggyback adding nothing: %v allocs/op, want 0", l, n)
		}
	}

	// Every run's list is fresher than the last, so each absorb changes the
	// set: to exactly the list (adopted), or to a merge the list lacks a
	// tombstone of.
	var adopt, merge [][]overlay.Tombstone
	for k := int64(1); k <= runs+1; k++ {
		adopt = append(adopt, []overlay.Tombstone{{Node: 40, Stamp: now + k}, {Node: 41, Stamp: now + k}, {Node: 42, Stamp: now + k}})
		merge = append(merge, []overlay.Tombstone{{Node: 43, Stamp: now + k}})
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { s.absorb(adopt[next], now); next++ }); n != 0 {
		t.Errorf("absorb that adopts: %v allocs/op, want 0", n)
	}
	if got := s.Tombstones(); &got[0] != &adopt[next-1][0] {
		t.Fatalf("the graveyard copied a list it should have adopted: %v", got)
	}
	next = 0
	if n := testing.AllocsPerRun(runs, func() { s.absorb(merge[next], now); next++ }); n != 1 {
		t.Errorf("absorb that merges: %v allocs/op, want 1", n)
	}
	if got := s.Tombstones(); len(got) != 4 || got[3] != merge[next-1][0] {
		t.Fatalf("merged set %v, want the adopted three plus node 43", got)
	}
}
