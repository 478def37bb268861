package cluster

import (
	"math/rand"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

func descWithLikes(node news.NodeID, stamp int64, liked ...news.ID) overlay.Descriptor {
	p := profile.New()
	for _, id := range liked {
		p.Set(id, stamp, 1)
	}
	return overlay.Descriptor{Node: node, Stamp: stamp, Profile: snapshotOf(p)}
}

func ownProfile(liked ...news.ID) *profile.Profile {
	p := profile.New()
	for _, id := range liked {
		p.Set(id, 0, 1)
	}
	return p
}

func TestSeedKeepsMostSimilar(t *testing.T) {
	p := New(0, "", 2, profile.WUP{}, rand.New(rand.NewSource(1)))
	own := ownProfile(1, 2)
	p.Seed([]overlay.Descriptor{
		descWithLikes(1, 0, 1, 2),
		descWithLikes(2, 0, 1),
		descWithLikes(3, 0, 42),
	}, own)
	if p.View().Len() != 2 {
		t.Fatalf("len=%d want 2", p.View().Len())
	}
	if !p.View().Contains(1) || !p.View().Contains(2) {
		t.Fatalf("wrong survivors: %v", p.View().Nodes())
	}
}

func TestMakePushSendsEntireView(t *testing.T) {
	p := New(0, "", 4, profile.WUP{}, rand.New(rand.NewSource(2)))
	own := ownProfile(1)
	p.Seed([]overlay.Descriptor{
		descWithLikes(1, 0, 1), descWithLikes(2, 0, 1), descWithLikes(3, 0, 1),
	}, own)
	push := p.MakePush(p.Descriptor(9, own))
	if len(push) != 1+3 {
		t.Fatalf("WUP push must carry the entire view: len=%d want 4", len(push))
	}
	if push[0].Node != 0 {
		t.Fatal("push must start with own descriptor")
	}
}

func TestExchangeImprovesBothSides(t *testing.T) {
	// a and b share tastes but only know dissimilar nodes; after one
	// exchange each must hold the other.
	a := New(0, "", 2, profile.WUP{}, rand.New(rand.NewSource(3)))
	b := New(1, "", 3, profile.WUP{}, rand.New(rand.NewSource(4)))
	ownA := ownProfile(1, 2, 3)
	ownB := ownProfile(1, 2, 3)
	a.Seed([]overlay.Descriptor{descWithLikes(1, 1, 1, 2, 3), descWithLikes(5, 1, 99)}, ownA)
	// b also knows node 7, which shares a's tastes: after the exchange a can
	// fill its 2-slot view with {1, 7} and evict the dissimilar node 5.
	b.Seed([]overlay.Descriptor{
		descWithLikes(0, 1, 1, 2, 3),
		descWithLikes(7, 1, 1, 2, 3),
		descWithLikes(6, 1, 98),
	}, ownB)

	push := a.MakePush(a.Descriptor(10, ownA))
	reply := b.AcceptPush(push, b.Descriptor(10, ownB), ownB)
	a.AcceptReply(reply, ownA)

	if !b.View().Contains(0) {
		t.Fatal("responder must adopt similar initiator")
	}
	if !a.View().Contains(1) {
		t.Fatal("initiator must adopt similar responder")
	}
	if a.View().Contains(5) {
		t.Fatal("dissimilar node must have been evicted from a's view")
	}
}

func TestRandomTargetsAreFromView(t *testing.T) {
	p := New(0, "", 6, profile.WUP{}, rand.New(rand.NewSource(5)))
	own := ownProfile(1)
	var seed []overlay.Descriptor
	for i := news.NodeID(1); i <= 6; i++ {
		seed = append(seed, descWithLikes(i, 0, 1))
	}
	p.Seed(seed, own)
	nodeOf := func(slot *news.NodeID, d overlay.Descriptor) { *slot = d.Node }
	targets := make([]news.NodeID, 3)
	RandomTargets(p, targets, nodeOf)
	seen := map[news.NodeID]bool{}
	for _, id := range targets {
		if !p.View().Contains(id) || seen[id] {
			t.Fatalf("targets %v: %d not in view, or drawn twice", targets, id)
		}
		seen[id] = true
	}
	all := make([]news.NodeID, p.View().Len())
	RandomTargets(p, all, nodeOf)
	for i, d := range p.View().Entries() {
		if all[i] != d.Node {
			t.Fatalf("a fanout covering the view must address it in order: %v", all)
		}
	}
}

func TestAverageSimilarity(t *testing.T) {
	p := New(0, "", 4, profile.WUP{}, rand.New(rand.NewSource(6)))
	own := ownProfile(1, 2)
	if p.AverageSimilarity(own) != 0 {
		t.Fatal("empty view must have average similarity 0")
	}
	p.Seed([]overlay.Descriptor{descWithLikes(1, 0, 1, 2), descWithLikes(2, 0, 1, 2)}, own)
	if got := p.AverageSimilarity(own); got < 0.99 {
		t.Fatalf("identical neighbours must give ~1, got %v", got)
	}
}

func TestClusteringConvergence(t *testing.T) {
	// 30 nodes in 3 interest communities of 10, seeded with a random graph.
	// After gossiping (with RPS-like candidate injection), most of each WUP
	// view must point inside the node's own community.
	const n, communities, vs, cycles = 30, 3, 4, 25
	rng := rand.New(rand.NewSource(7))
	owns := make([]*profile.Profile, n)
	nodes := make([]*Protocol, n)
	for i := 0; i < n; i++ {
		community := i % communities
		owns[i] = ownProfile() // fill below
		for item := 0; item < 6; item++ {
			owns[i].Set(news.ID(community*100+item), 0, 1)
		}
		nodes[i] = New(news.NodeID(i), "", vs, profile.WUP{}, rand.New(rand.NewSource(int64(10+i))))
	}
	descOf := func(i int, now int64) overlay.Descriptor {
		return nodes[i].Descriptor(now, owns[i])
	}
	for i := 0; i < n; i++ {
		var seed []overlay.Descriptor
		for _, j := range rng.Perm(n)[:vs+2] {
			if j != i {
				seed = append(seed, descOf(j, 0))
			}
		}
		nodes[i].Seed(seed, owns[i])
	}
	for c := 1; c <= cycles; c++ {
		for i := range nodes {
			// Random candidate injection stands in for the RPS feed.
			j := rng.Intn(n)
			if j != i {
				nodes[i].Merge([]overlay.Descriptor{descOf(j, int64(c))}, owns[i])
			}
			peer, ok := nodes[i].SelectPeer()
			if !ok {
				continue
			}
			push := nodes[i].MakePush(descOf(i, int64(c)))
			responder := nodes[peer.Node]
			reply := responder.AcceptPush(push, descOf(int(peer.Node), int64(c)), owns[peer.Node])
			nodes[i].AcceptReply(reply, owns[i])
		}
	}
	inCommunity, total := 0, 0
	for i, nd := range nodes {
		for _, d := range nd.View().Entries() {
			total++
			if int(d.Node)%communities == i%communities {
				inCommunity++
			}
		}
	}
	if frac := float64(inCommunity) / float64(total); frac < 0.9 {
		t.Fatalf("clustering did not converge: only %.2f of view links in-community", frac)
	}
}

// AcceptReply is exercised via the exchange tests; make sure it exists with
// the documented signature.
func TestAcceptReplySignature(t *testing.T) {
	p := New(0, "", 2, profile.Cosine{}, rand.New(rand.NewSource(8)))
	own := ownProfile(1)
	p.AcceptReply([]overlay.Descriptor{descWithLikes(1, 0, 1)}, own)
	if !p.View().Contains(1) {
		t.Fatal("AcceptReply must merge candidates")
	}
}

// snapshotOf is p packed, by address, as a descriptor holds it.
func snapshotOf(p *profile.Profile) *profile.Packed {
	pk := p.Pack()
	return &pk
}
