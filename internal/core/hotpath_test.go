package core

// Regression tests for the item-profile ownership rule on BEEP's hot path: a
// profile in an ItemMessage is never written once it is sent, a forward
// hands every path the same one, and a receiver that changes it builds its
// own — which must be observationally identical to every path carrying a
// deep copy that its receiver mutates in place (paper II-B divergence). The
// companion allocation pin for the receive-liked path lives in
// internal/experiments/hotpath_test.go, next to the benchmark fixture it
// pins.

import (
	"math/rand"
	"sync"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// steadyStateNode builds a node in a warmed-up steady state: a windowed user
// profile, seeded views and an advancing clock.
func steadyStateNode(fLike int) (*Node, *profile.Profile) {
	n := testNode(1, likeAll(), Config{FLike: fLike, ProfileWindow: 60})
	descs := make([]overlay.Descriptor, 0, 16)
	for i := news.NodeID(2); i < 18; i++ {
		descs = append(descs, descFor(i, 0, news.ID(i), news.ID(i+1)))
	}
	n.SeedViews(descs)
	for i := 0; i < 40; i++ {
		n.UserProfile().Set(news.ID(2000+i), int64(i), float64(i%2))
	}
	tmpl := profile.New()
	for i := 0; i < 25; i++ {
		tmpl.Set(news.ID(1990+i), int64(30+i%10), 1)
	}
	return n, tmpl
}

func TestForwardCOWCopiesDivergeLikeDeepCopies(t *testing.T) {
	// End-to-end divergence: deliver one item and let every path's profile
	// be changed differently, the way downstream receivers change it (a
	// fold into a profile of their own, a window purge that copies only
	// when it drops something). Check each against a deep copy that the
	// same operations mutate in place, and the profiles handed out against
	// what they were when sent.
	rng := rand.New(rand.NewSource(3))
	n, tmpl := steadyStateNode(4)
	arrived := tmpl.Pack()
	for trial := 0; trial < 50; trial++ {
		it := news.Item{ID: news.ID(5000 + trial), Title: "t", Created: 60}
		ref := tmpl.Clone()
		ref.MergeAverage(n.UserProfile())
		ref.PurgeOlderThan(60 - 60)
		_, sends := n.Receive(ItemMessage{Item: it, Profile: tmpl, Hops: 1}, 60)
		if len(sends) == 0 {
			t.Fatal("liked receive must forward")
		}
		sent := sends[0].Msg.Profile.Pack()
		if want := ref.Pack(); !sent.Equal(&want) {
			t.Fatalf("trial %d: the receiver forwards %v, the deep-copy reference %v", trial, &sent, &want)
		}
		paths := make([]*profile.Profile, len(sends))
		refs := make([]*profile.Profile, len(sends))
		for i, s := range sends {
			if s.Msg.Profile != sends[0].Msg.Profile {
				t.Fatalf("trial %d: send %d was handed a profile of its own", trial, i)
			}
			paths[i] = s.Msg.Profile
			refs[i] = s.Msg.Profile.Clone()
		}
		for i := range paths {
			for k := 0; k < 5; k++ {
				other := profile.New()
				for j := rng.Intn(3); j > 0; j-- {
					other.Set(news.ID(rng.Int63n(100)), rng.Int63n(100), float64(rng.Intn(2)))
				}
				paths[i] = paths[i].Merged(other)
				refs[i].MergeAverage(other)
				if rng.Intn(3) == 0 {
					cut := rng.Int63n(40)
					paths[i] = paths[i].Windowed(cut)
					refs[i].PurgeOlderThan(cut)
				}
			}
		}
		for i := range paths {
			got, want := paths[i].Pack(), refs[i].Pack()
			if !got.Equal(&want) {
				t.Fatalf("trial %d path %d: diverged from deep-copy semantics: %v, want %v", trial, i, &got, &want)
			}
		}
		if again := sends[0].Msg.Profile.Pack(); !again.Equal(&sent) {
			t.Fatalf("trial %d: the profile handed to every path changed", trial)
		}
		if again := tmpl.Pack(); !again.Equal(&arrived) {
			t.Fatalf("trial %d: the receiver wrote the profile it was handed", trial)
		}
	}
}

// TestConcurrentReceiversLeaveSharedProfile delivers one liked forward to
// five receivers at once, each on its own goroutine, so the race detector
// sees any write to the profile they share: a liker with interests of its
// own, a liker with none whose window finds a stale entry, a disliker whose
// window finds one, a disliker whose window does not, and a receiver that
// has already seen the item. None may change the shared profile's entries,
// and each must forward what a deep copy of it, mutated in place by the same
// fold and purge, gives.
func TestConcurrentReceiversLeaveSharedProfile(t *testing.T) {
	const now = 100
	sender := testNode(1, likeAll(), Config{FLike: 5, ProfileWindow: 100})
	var targets []overlay.Descriptor
	for id := news.NodeID(10); id < 15; id++ {
		targets = append(targets, descFor(id, 0, news.ID(id)))
	}
	sender.SeedViews(targets)
	for i := 0; i < 12; i++ {
		sender.UserProfile().Set(news.ID(300+i), int64(10*i), float64(i%2))
	}
	it := item(4242, now)
	sends := sender.Publish(it, now)
	if len(sends) != len(targets) {
		t.Fatalf("want %d sends, got %d", len(targets), len(sends))
	}
	shared := sends[0].Msg.Profile
	for _, s := range sends[1:] {
		if s.Msg.Profile != shared {
			t.Fatal("every path of a forward must be handed the same item profile")
		}
	}
	before := shared.Pack()

	receivers := []struct {
		name   string
		likes  bool
		window int64
		user   int // user-profile entries
		dup    bool
	}{
		{"liked", true, 100, 8, false},
		{"liked-empty-user-stale", true, 40, 0, false},
		{"disliked-stale", false, 40, 4, false},
		{"disliked-fresh", false, 1000, 4, false},
		{"duplicate", true, 100, 4, true},
	}
	nodes := make([]*Node, len(receivers))
	refs := make([]*profile.Profile, len(receivers))
	for i, rc := range receivers {
		op := likeNone()
		if rc.likes {
			op = likeAll()
		}
		r := testNode(news.NodeID(20+i), op, Config{FLike: 3, ProfileWindow: rc.window, DislikeTTL: 4})
		var view []overlay.Descriptor
		for id := news.NodeID(30); id < 34; id++ {
			view = append(view, descFor(id, 0, news.ID(300+int(id)%4)))
		}
		r.SeedViews(view)
		for j := 0; j < rc.user; j++ {
			r.UserProfile().Set(news.ID(300+2*j), int64(now-j), 1)
		}
		if rc.dup {
			r.Receive(ItemMessage{Item: it, Profile: profile.New(), Hops: 1}, now)
		}
		ref := shared.Clone()
		if rc.likes {
			ref.MergeAverage(r.UserProfile())
		}
		stale := ref.PurgeOlderThan(now-rc.window) > 0
		if want := rc.name == "liked-empty-user-stale" || rc.name == "disliked-stale"; stale != want {
			t.Fatalf("%s: vacuous, a stale entry found = %v", rc.name, stale)
		}
		nodes[i], refs[i] = r, ref
	}

	type outcome struct {
		d     Delivery
		sends []Send
	}
	outcomes := make([]outcome, len(receivers))
	var wg sync.WaitGroup
	for i := range receivers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, out := nodes[i].Receive(sends[i].Msg, now)
			outcomes[i] = outcome{d, out}
		}(i)
	}
	wg.Wait()

	for i, rc := range receivers {
		o := outcomes[i]
		if rc.dup {
			if !o.d.Duplicate || o.sends != nil {
				t.Fatalf("%s: delivery %+v with %d sends, want a dropped duplicate", rc.name, o.d, len(o.sends))
			}
			continue
		}
		if o.d.Duplicate || o.d.Liked != rc.likes || len(o.sends) == 0 {
			t.Fatalf("%s: delivery %+v with %d sends", rc.name, o.d, len(o.sends))
		}
		want := refs[i].Pack()
		for _, s := range o.sends {
			if got := s.Msg.Profile.Pack(); !got.Equal(&want) {
				t.Fatalf("%s: forwards %v, the deep-copy reference %v", rc.name, &got, &want)
			}
		}
		if mine := o.sends[0].Msg.Profile == shared; mine != (rc.name == "disliked-fresh") {
			t.Fatalf("%s: forwards the shared profile itself = %v", rc.name, mine)
		}
	}
	if after := shared.Pack(); !after.Equal(&before) {
		t.Fatalf("a receiver wrote the shared profile: %v, was %v", &after, &before)
	}
}
