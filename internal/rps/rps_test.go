package rps

import (
	"math/rand"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

func mkDesc(node news.NodeID, stamp int64) overlay.Descriptor {
	return overlay.Descriptor{Node: node, Stamp: stamp, Profile: snapshotOf(profile.New())}
}

func TestSeedExcludesSelfAndBounds(t *testing.T) {
	p := New(0, "", 3, rand.New(rand.NewSource(1)))
	seed := []overlay.Descriptor{mkDesc(0, 1), mkDesc(1, 1), mkDesc(2, 1), mkDesc(3, 1), mkDesc(4, 1)}
	p.Seed(seed)
	if p.View().Contains(0) {
		t.Fatal("a node must never hold its own descriptor")
	}
	if p.View().Len() != 3 {
		t.Fatalf("view len=%d want capacity 3", p.View().Len())
	}
}

func TestSelectPeerPicksOldest(t *testing.T) {
	p := New(0, "", 5, rand.New(rand.NewSource(2)))
	p.Seed([]overlay.Descriptor{mkDesc(1, 10), mkDesc(2, 4), mkDesc(3, 8)})
	d, ok := p.SelectPeer()
	if !ok || d.Node != 2 {
		t.Fatalf("SelectPeer=%v want node 2", d.Node)
	}
}

func TestMakePushContainsSelfAndHalfView(t *testing.T) {
	p := New(0, "addr0", 8, rand.New(rand.NewSource(3)))
	var seed []overlay.Descriptor
	for i := news.NodeID(1); i <= 8; i++ {
		seed = append(seed, mkDesc(i, int64(i)))
	}
	p.Seed(seed)
	self := p.Descriptor(99, profile.New())
	push := p.MakePush(self)
	if len(push) != 1+4 {
		t.Fatalf("push size=%d want 5 (self + half of 8)", len(push))
	}
	if push[0].Node != 0 || push[0].Stamp != 99 {
		t.Fatalf("push must start with own fresh descriptor, got %+v", push[0])
	}
}

func TestDescriptorSnapshotsProfile(t *testing.T) {
	p := New(0, "", 4, rand.New(rand.NewSource(4)))
	prof := profile.New()
	prof.Set(1, 1, 1)
	d := p.Descriptor(5, prof)
	prof.Set(2, 2, 1) // mutate after snapshot
	if u, _, err := profile.DecodeWire(d.Profile.AppendWire(nil)); err != nil || u.Len() != 1 {
		t.Fatal("descriptor profile must be a snapshot, not a live pointer")
	}
}

func TestExchangeConvergesViews(t *testing.T) {
	// Two partitioned cliques must mix once an exchange bridges them.
	rng := rand.New(rand.NewSource(5))
	a := New(0, "", 4, rand.New(rand.NewSource(6)))
	b := New(1, "", 4, rand.New(rand.NewSource(7)))
	a.Seed([]overlay.Descriptor{mkDesc(1, 1), mkDesc(2, 1), mkDesc(3, 1)})
	b.Seed([]overlay.Descriptor{mkDesc(0, 1), mkDesc(4, 1), mkDesc(5, 1)})
	_ = rng

	selfA := a.Descriptor(10, profile.New())
	selfB := b.Descriptor(10, profile.New())
	push := a.MakePush(selfA)
	reply := b.AcceptPush(push, selfB)
	a.AcceptReply(reply)

	if !b.View().Contains(0) {
		t.Fatal("responder must learn the initiator")
	}
	if !a.View().Contains(1) {
		t.Fatal("initiator must keep or relearn the responder")
	}
}

func TestMergeKeepsFreshestDuplicate(t *testing.T) {
	p := New(0, "", 4, rand.New(rand.NewSource(8)))
	p.Seed([]overlay.Descriptor{mkDesc(1, 5)})
	p.AcceptReply([]overlay.Descriptor{mkDesc(1, 9)})
	d, _ := p.View().Get(1)
	if d.Stamp != 9 {
		t.Fatalf("merge kept stale descriptor stamp=%d", d.Stamp)
	}
	p.AcceptReply([]overlay.Descriptor{mkDesc(1, 2)})
	d, _ = p.View().Get(1)
	if d.Stamp != 9 {
		t.Fatalf("merge regressed to stale descriptor stamp=%d", d.Stamp)
	}
}

func TestGossipRandomizesNetwork(t *testing.T) {
	// Run a ring of 40 nodes for 30 cycles; RPS must take every view far
	// beyond its two ring neighbours (randomness) while staying connected.
	const n, cycles, vs = 40, 30, 8
	nodes := make([]*Protocol, n)
	for i := range nodes {
		nodes[i] = New(news.NodeID(i), "", vs, rand.New(rand.NewSource(int64(100+i))))
	}
	for i := range nodes {
		nodes[i].Seed([]overlay.Descriptor{
			mkDesc(news.NodeID((i+1)%n), 0),
			mkDesc(news.NodeID((i+n-1)%n), 0),
		})
	}
	empty := profile.New()
	for c := 1; c <= cycles; c++ {
		for i, nd := range nodes {
			peer, ok := nd.SelectPeer()
			if !ok {
				t.Fatalf("node %d lost all neighbours at cycle %d", i, c)
			}
			self := nd.Descriptor(int64(c), empty)
			push := nd.MakePush(self)
			responder := nodes[peer.Node]
			reply := responder.AcceptPush(push, responder.Descriptor(int64(c), empty))
			nd.AcceptReply(reply)
		}
	}
	// Count distinct nodes ever reachable in one hop; a random overlay of
	// degree 8 should give most nodes well over 2 distinct neighbours.
	far := 0
	for i, nd := range nodes {
		for _, d := range nd.View().Entries() {
			dist := int(d.Node) - i
			if dist < 0 {
				dist = -dist
			}
			if dist > 1 && dist < n-1 {
				far++
			}
		}
	}
	if far < n { // at least one non-ring neighbour per node on average
		t.Fatalf("overlay did not randomize: only %d far links", far)
	}
}

func TestCrashClearsState(t *testing.T) {
	p := New(0, "", 4, rand.New(rand.NewSource(9)))
	p.Seed([]overlay.Descriptor{mkDesc(1, 1), mkDesc(2, 1)})
	p.Crash()
	if p.View().Len() != 0 {
		t.Fatal("crash must clear the view")
	}
	if _, ok := p.SelectPeer(); ok {
		t.Fatal("crashed node must have no peer to select")
	}
}

// snapshotOf is p packed, by address, as a descriptor holds it.
func snapshotOf(p *profile.Profile) *profile.Packed {
	pk := p.Pack()
	return &pk
}
