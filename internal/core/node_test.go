package core

import (
	"bytes"
	"math/rand"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// likeAll / likeNone / likeSet build Opinions for tests.
func likeSet(liked map[news.ID]bool) Opinions {
	return OpinionFunc(func(_ news.NodeID, item news.ID) bool { return liked[item] })
}

// holds reports whether p holds an entry for id.
func holds(p *profile.Profile, id news.ID) bool {
	_, ok := p.Get(id)
	return ok
}

func likeAll() Opinions {
	return OpinionFunc(func(news.NodeID, news.ID) bool { return true })
}

func likeNone() Opinions {
	return OpinionFunc(func(news.NodeID, news.ID) bool { return false })
}

func testNode(id news.NodeID, op Opinions, cfg Config) *Node {
	return NewNode(id, "", cfg, op, rand.New(rand.NewSource(int64(id)+1)))
}

func descFor(node news.NodeID, stamp int64, liked ...news.ID) overlay.Descriptor {
	p := profile.New()
	for _, id := range liked {
		p.Set(id, stamp, 1)
	}
	return overlay.Descriptor{Node: node, Stamp: stamp, Profile: snapshotOf(p)}
}

func item(id int, created int64) news.Item {
	it := news.New("t", "d", "l", created, 0)
	it.ID = news.ID(id) // fixed id for test readability
	return it
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.RPSViewSize != 30 || c.FLike != 10 || c.WUPViewSize != 20 ||
		c.DislikeTTL != 4 || c.ProfileWindow != 13 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Metric == nil || c.Metric.Name() != "wup" {
		t.Fatal("default metric must be wup")
	}
	zero := Config{DislikeTTL: -1}.WithDefaults()
	if zero.DislikeTTL != 0 {
		t.Fatalf("negative TTL must mean explicit zero, got %d", zero.DislikeTTL)
	}
	keep := Config{FLike: 5}.WithDefaults()
	if keep.WUPViewSize != 10 {
		t.Fatalf("WUPvs must default to 2·fLIKE, got %d", keep.WUPViewSize)
	}
}

func TestPublishUpdatesProfileAndAmplifies(t *testing.T) {
	n := testNode(0, likeAll(), Config{FLike: 2})
	n.SeedViews([]overlay.Descriptor{
		descFor(1, 0, 5), descFor(2, 0, 5), descFor(3, 0, 5),
	})
	// Pre-existing interest so the item profile has something to aggregate.
	n.UserProfile().Set(5, 1, 1)

	it := item(100, 2)
	sends := n.Publish(it, 2)
	if len(sends) != 2 {
		t.Fatalf("publish must amplify to fLIKE targets, got %d", len(sends))
	}
	if e, ok := n.UserProfile().Get(100); !ok || e.Score != 1 {
		t.Fatal("source must like its own item")
	}
	for _, s := range sends {
		if !holds(s.Msg.Profile, 100) || !holds(s.Msg.Profile, 5) {
			t.Fatalf("item profile must aggregate the source profile incl. own item: %v", s.Msg.Profile)
		}
		if s.Msg.Hops != 1 {
			t.Fatalf("first-hop messages must carry Hops=1, got %d", s.Msg.Hops)
		}
		if s.Msg.Dislikes != 0 || s.Msg.ViaDislike {
			t.Fatal("publish sends must be like-forwards")
		}
	}
	if again := n.Publish(it, 3); again != nil {
		t.Fatal("re-publishing a seen item must be a no-op")
	}
}

func TestReceiveLikedAggregatesBeforeRating(t *testing.T) {
	// Algorithm 1 order: the receiver's profile is folded into the item
	// profile *before* the new item is added to the user profile, so the
	// item profile the receiver sends must NOT contain the item itself from
	// this receiver. The profile it was handed is left as it arrived.
	n := testNode(1, likeAll(), Config{FLike: 1})
	n.SeedViews([]overlay.Descriptor{descFor(2, 0, 1)})
	n.UserProfile().Set(7, 1, 1)
	msg := ItemMessage{Item: item(200, 2), Profile: profile.New(), Hops: 1}
	d, sends := n.Receive(msg, 2)
	if !d.Liked || d.Duplicate {
		t.Fatalf("delivery wrong: %+v", d)
	}
	if len(sends) != 1 {
		t.Fatalf("want 1 send, got %d", len(sends))
	}
	if e, ok := n.UserProfile().Get(200); !ok || e.Score != 1 {
		t.Fatal("liked item must enter the user profile with score 1")
	}
	out := sends[0].Msg.Profile
	if !holds(out, 7) {
		t.Fatal("item profile must aggregate the receiver's prior interests")
	}
	if holds(out, 200) {
		t.Fatal("receiver must not add the item itself to the item profile (line order)")
	}
	if msg.Profile.Len() != 0 {
		t.Fatalf("the receiver wrote the profile it was handed: %v", msg.Profile)
	}
}

func TestReceiveLikedAveragesScores(t *testing.T) {
	n := testNode(1, likeAll(), Config{FLike: 1})
	n.SeedViews([]overlay.Descriptor{descFor(2, 0, 1)})
	n.UserProfile().Set(7, 1, 1)
	ip := profile.New()
	ip.Set(7, 1, 0) // a previous liker disliked item 7
	msg := ItemMessage{Item: item(300, 2), Profile: ip, Hops: 1}
	_, sends := n.Receive(msg, 2)
	if len(sends) != 1 {
		t.Fatalf("want 1 send, got %d", len(sends))
	}
	if e, _ := sends[0].Msg.Profile.Get(7); e.Score != 0.5 {
		t.Fatalf("item profile score must average: got %v want 0.5", e.Score)
	}
	if e, _ := ip.Get(7); e.Score != 0 || ip.Len() != 1 {
		t.Fatalf("the receiver wrote the profile it was handed: %v", ip)
	}
}

func TestReceiveDislikedRecordsAndOrients(t *testing.T) {
	liked := map[news.ID]bool{}
	n := testNode(1, likeSet(liked), Config{FLike: 3, DislikeTTL: 4})
	// RPS view: node 9's profile matches the item profile best.
	n.RPS().Seed([]overlay.Descriptor{
		descFor(8, 0, 50),
		descFor(9, 0, 60, 61),
	})
	ip := profile.New()
	ip.Set(60, 1, 1)
	ip.Set(61, 1, 1)
	msg := ItemMessage{Item: item(400, 2), Profile: ip, Dislikes: 1, Hops: 3}
	d, sends := n.Receive(msg, 2)
	if d.Liked {
		t.Fatal("opinion must be dislike")
	}
	if e, ok := n.UserProfile().Get(400); !ok || e.Score != 0 {
		t.Fatal("dislike must be recorded with score 0")
	}
	if len(sends) != 1 {
		t.Fatalf("dislike fanout must be 1, got %d", len(sends))
	}
	if sends[0].To != 9 {
		t.Fatalf("orientation must pick the most similar RPS node, got %d", sends[0].To)
	}
	if sends[0].Msg.Dislikes != 2 {
		t.Fatalf("dislike counter must increment, got %d", sends[0].Msg.Dislikes)
	}
	if !sends[0].Msg.ViaDislike {
		t.Fatal("send must be marked as dislike-forward")
	}
	if holds(msg.Profile, 400) {
		t.Fatal("disliker must not aggregate into the item profile")
	}
}

func TestDislikeTTLDropsItem(t *testing.T) {
	n := testNode(1, likeNone(), Config{DislikeTTL: 2})
	n.RPS().Seed([]overlay.Descriptor{descFor(5, 0, 1)})
	msg := ItemMessage{Item: item(500, 1), Profile: profile.New(), Dislikes: 2}
	if _, sends := n.Receive(msg, 1); sends != nil {
		t.Fatalf("item at TTL must be dropped, got %d sends", len(sends))
	}
	// Explicit zero TTL: never forward dislikes.
	z := testNode(2, likeNone(), Config{DislikeTTL: -1})
	z.RPS().Seed([]overlay.Descriptor{descFor(5, 0, 1)})
	msg2 := ItemMessage{Item: item(501, 1), Profile: profile.New()}
	if _, sends := z.Receive(msg2, 1); sends != nil {
		t.Fatal("TTL 0 must never forward dislikes")
	}
}

func TestDuplicateDropped(t *testing.T) {
	n := testNode(1, likeAll(), Config{FLike: 1})
	n.SeedViews([]overlay.Descriptor{descFor(2, 0, 1)})
	msg := ItemMessage{Item: item(600, 1), Profile: profile.New(), Hops: 1}
	if d, _ := n.Receive(msg, 1); d.Duplicate {
		t.Fatal("first receipt must not be duplicate")
	}
	msg2 := ItemMessage{Item: item(600, 1), Profile: profile.New(), Hops: 2}
	d, sends := n.Receive(msg2, 1)
	if !d.Duplicate || sends != nil {
		t.Fatal("second receipt must be dropped with no sends")
	}
	if n.UserProfile().Len() != 1 {
		t.Fatal("duplicate must not touch the user profile")
	}
}

func TestForwardClonesProfilesPerPath(t *testing.T) {
	// Every path of a forward is handed the one item profile; the copies
	// diverge (II-B) where the receivers fold their own profiles in, each
	// into a profile of its own.
	n := testNode(1, likeAll(), Config{FLike: 3})
	n.SeedViews([]overlay.Descriptor{
		descFor(2, 0, 1), descFor(3, 0, 1), descFor(4, 0, 1),
	})
	msg := ItemMessage{Item: item(700, 1), Profile: profile.New(), Hops: 1}
	_, sends := n.Receive(msg, 1)
	if len(sends) != 3 {
		t.Fatalf("want 3 sends, got %d", len(sends))
	}
	shared := sends[0].Msg.Profile
	for _, s := range sends[1:] {
		if s.Msg.Profile != shared {
			t.Fatal("every path of a forward must be handed the same item profile")
		}
	}
	arrived := shared.AppendWire(nil)
	var forwarded []*profile.Profile
	for i, s := range sends {
		r := testNode(s.To, likeAll(), Config{FLike: 1})
		r.SeedViews([]overlay.Descriptor{descFor(9, 0, 1)})
		r.UserProfile().Set(news.ID(900+i), 1, 1)
		_, out := r.Receive(s.Msg, 1)
		if len(out) != 1 {
			t.Fatalf("receiver %d: want 1 send, got %d", s.To, len(out))
		}
		forwarded = append(forwarded, out[0].Msg.Profile)
	}
	for i, p := range forwarded {
		for j, q := range forwarded[:i] {
			if p == q || bytes.Equal(p.AppendWire(nil), q.AppendWire(nil)) {
				t.Fatalf("receivers %d and %d forward the same item profile %v", j, i, p)
			}
		}
		if !holds(p, news.ID(900+i)) {
			t.Fatalf("receiver %d forwards %v, without its own interest", i, p)
		}
	}
	if string(shared.AppendWire(nil)) != string(arrived) {
		t.Fatalf("a receiver wrote the shared item profile: %v", shared)
	}
}

func TestItemProfilePurgedBeforeForward(t *testing.T) {
	n := testNode(1, likeAll(), Config{FLike: 1, ProfileWindow: 5})
	n.SeedViews([]overlay.Descriptor{descFor(2, 0, 1)})
	ip := profile.New()
	ip.Set(10, 1, 1)  // stale at now=20 with window 5
	ip.Set(11, 18, 1) // fresh
	msg := ItemMessage{Item: item(800, 19), Profile: ip, Hops: 1}
	_, sends := n.Receive(msg, 20)
	if len(sends) != 1 {
		t.Fatalf("want 1 send, got %d", len(sends))
	}
	out := sends[0].Msg.Profile
	if holds(out, 10) {
		t.Fatal("stale entries must be purged from the item profile before forwarding")
	}
	if !holds(out, 11) {
		t.Fatal("fresh entries must survive the purge")
	}
}

func TestBeginCyclePurgesUserProfile(t *testing.T) {
	n := testNode(1, likeAll(), Config{ProfileWindow: 10})
	n.UserProfile().Set(1, 5, 1)
	n.UserProfile().Set(2, 50, 1)
	n.BeginCycle(60)
	if holds(n.UserProfile(), 1) || !holds(n.UserProfile(), 2) {
		t.Fatalf("window purge wrong: %v", n.UserProfile())
	}
}

func TestColdStartRatesPopularItems(t *testing.T) {
	n := testNode(42, likeAll(), Config{})
	inherited := []overlay.Descriptor{
		descFor(1, 0, 10, 11, 12),
		descFor(2, 0, 10, 11),
		descFor(3, 0, 10),
		descFor(4, 0, 99),
	}
	n.ColdStart(inherited, inherited, 7)
	up := n.UserProfile()
	if up.Len() != 3 {
		t.Fatalf("cold start must rate 3 items, got %d", up.Len())
	}
	for _, id := range []news.ID{10, 11, 12} {
		e, ok := up.Get(id)
		if !ok || e.Score != 1 || e.Stamp != 7 {
			t.Fatalf("popular item %d must be liked at join time, got %+v ok=%v", id, e, ok)
		}
	}
	if n.RPS().View().Len() == 0 || n.WUP().View().Len() == 0 {
		t.Fatal("cold start must inherit both views")
	}
}

func TestInjectRPSCandidates(t *testing.T) {
	n := testNode(1, likeAll(), Config{FLike: 2})
	n.UserProfile().Set(5, 1, 1)
	n.RPS().Seed([]overlay.Descriptor{descFor(7, 0, 5)})
	if n.WUP().View().Contains(7) {
		t.Fatal("precondition: WUP view empty")
	}
	n.InjectRPSCandidates()
	if !n.WUP().View().Contains(7) {
		t.Fatal("RPS candidates must flow into the WUP view")
	}
}

func TestLikedForwardTargetsComeFromWUPView(t *testing.T) {
	n := testNode(1, likeAll(), Config{FLike: 2})
	n.WUP().Seed([]overlay.Descriptor{
		descFor(2, 0, 1), descFor(3, 0, 1), descFor(4, 0, 1), descFor(5, 0, 1),
	}, n.UserProfile())
	n.RPS().Seed([]overlay.Descriptor{descFor(9, 0, 1)})
	msg := ItemMessage{Item: item(900, 1), Profile: profile.New(), Hops: 1}
	_, sends := n.Receive(msg, 1)
	if len(sends) != 2 {
		t.Fatalf("want fLIKE=2 sends, got %d", len(sends))
	}
	for _, s := range sends {
		if s.To == 9 {
			t.Fatal("liked forwards must target the WUP view, not RPS")
		}
		if !n.WUP().View().Contains(s.To) {
			t.Fatalf("target %d not in WUP view", s.To)
		}
	}
}

func TestCrashClearsViewsKeepsProfile(t *testing.T) {
	n := testNode(1, likeAll(), Config{})
	n.SeedViews([]overlay.Descriptor{descFor(2, 0, 1)})
	n.UserProfile().Set(1, 1, 1)
	n.Crash()
	if n.RPS().View().Len() != 0 || n.WUP().View().Len() != 0 {
		t.Fatal("crash must clear the views")
	}
	if n.UserProfile().Len() != 1 {
		t.Fatal("crash must keep the durable user profile")
	}
}

// TestLeaveAndRejoinLifecycle pins the node-side lifecycle next to Crash:
// Leave wipes views; Rejoin wipes views and re-seeds from the bootstrap
// sample while retaining the profile.
func TestLeaveAndRejoinLifecycle(t *testing.T) {
	n := NewNode(1, "", Config{FLike: 3}, likeAll(), rand.New(rand.NewSource(1)))
	seed := []overlay.Descriptor{
		{Node: 2, Stamp: 1, Profile: snapshotOf(profile.New())},
		{Node: 3, Stamp: 1, Profile: snapshotOf(profile.New())},
	}
	n.SeedViews(seed)
	n.UserProfile().Set(10, 5, 1)

	n.Leave()
	if n.RPS().View().Len() != 0 || n.WUP().View().Len() != 0 {
		t.Fatal("Leave must wipe both views")
	}
	if n.UserProfile().Len() != 1 {
		t.Fatal("Leave must not touch the durable profile")
	}

	n.SeedViews(seed)
	fresh := []overlay.Descriptor{{Node: 4, Stamp: 9, Profile: snapshotOf(profile.New())}}
	n.Rejoin(fresh, 9)
	if n.RPS().View().Contains(2) || n.RPS().View().Contains(3) {
		t.Fatal("Rejoin must wipe the pre-crash views")
	}
	if !n.RPS().View().Contains(4) || !n.WUP().View().Contains(4) {
		t.Fatal("Rejoin must seed both views from the bootstrap sample")
	}
	if n.UserProfile().Len() != 1 {
		t.Fatal("Rejoin must retain the profile")
	}
}

// TestBeginCycleEvictsStaleDescriptors pins the DescriptorTTL wiring: with
// a TTL set, BeginCycle drops view entries older than the horizon from both
// layers; without one, views are untouched (the static-population default).
func TestBeginCycleEvictsStaleDescriptors(t *testing.T) {
	mk := func(ttl int64) *Node {
		n := NewNode(1, "", Config{FLike: 3, DescriptorTTL: ttl}, likeAll(), rand.New(rand.NewSource(2)))
		n.SeedViews([]overlay.Descriptor{
			{Node: 2, Stamp: 5, Profile: snapshotOf(profile.New())},  // stale at now=30, ttl=20
			{Node: 3, Stamp: 25, Profile: snapshotOf(profile.New())}, // fresh
		})
		return n
	}
	n := mk(20)
	n.BeginCycle(30)
	if n.RPS().View().Contains(2) || n.WUP().View().Contains(2) {
		t.Fatal("stale descriptor must be evicted from both views")
	}
	if !n.RPS().View().Contains(3) || !n.WUP().View().Contains(3) {
		t.Fatal("fresh descriptor must survive")
	}
	off := mk(0)
	off.BeginCycle(30)
	if !off.RPS().View().Contains(2) || !off.WUP().View().Contains(2) {
		t.Fatal("with DescriptorTTL disabled BeginCycle must not evict")
	}
}

// snapshotOf is p packed, by address, as a descriptor holds it.
func snapshotOf(p *profile.Profile) *profile.Packed {
	pk := p.Pack()
	return &pk
}
