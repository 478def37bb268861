package experiments

import (
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// The hot-path benchmark family measures the per-event costs the rest of
// the system is built on (the zero-allocation work): the single-pass profile
// merge as a liker folds into the item profile it was handed, a profile
// copy and its first edit, a similarity trim with and without the view's
// survivor score cache, and the full BEEP receive-liked path. It is fixture code, not product, so it lives
// in this test file beside its only callers: BenchmarkHotPath, whose
// allocs/op and B/op the CI benchdiff gate compares against the committed
// bench_baseline.txt (ns/op is printed, never gated), the receive-liked
// allocation pin below, and — through hotPathWorld, one gossip cycle of a
// community world, plain, under churn and sharded — the hotpath cases of
// TestDriverOutputsPinned and BenchmarkFlashCrowd's engine sizing. What a
// whole cycle costs is benchmark/'s to measure, end to end.
const (
	// hotPathItems is the number of items hotPathWorld publishes per cycle.
	hotPathItems = 4
	// hotPathWorkers is BenchmarkFlashCrowd's engine pool, stated rather
	// than taken from GOMAXPROCS so the figure means the same on every host.
	hotPathWorkers = 2
	// hotPathShards is the routing partition count of the sharded worlds.
	hotPathShards = 4
)

// hotPathReceiver builds a steady-state node for the receive scenarios: a
// windowed user profile, seeded views, and a template item profile.
func hotPathReceiver(fLike int) (*core.Node, *profile.Profile) {
	likeAll := core.OpinionFunc(func(news.NodeID, news.ID) bool { return true })
	n := core.NewNode(1, "", core.Config{FLike: fLike, ProfileWindow: 60},
		likeAll, rand.New(rand.NewSource(7)))
	descs := make([]overlay.Descriptor, 0, 16)
	for i := news.NodeID(2); i < 18; i++ {
		p := profile.New()
		p.Set(news.ID(i), 0, 1)
		p.Set(news.ID(i+1), 0, 1)
		descs = append(descs, overlay.Descriptor{Node: i, Stamp: 0, Profile: snapshotOf(p)})
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

// hotPathProfiles builds the profile pair of the merge/clone scenarios.
func hotPathProfiles() (item, user *profile.Profile) {
	item = profile.New()
	for i := 0; i < 25; i++ {
		item.Set(news.ID(10+2*i), int64(i), 1)
	}
	user = profile.New()
	for i := 0; i < 40; i++ {
		user.Set(news.ID(3*i), int64(i), float64(i%2))
	}
	return item, user
}

// hotPathView builds the candidate set of the similarity scenarios: a view
// plus twice-capacity candidates of 20-entry profiles. Every trim offers all
// 20 again, so similarity-cached hits on the 10 survivors the last trim
// cached and rescores the 10 losers; similarity-uncached bumps self's
// version first and rescores all 20.
func hotPathView() (v *overlay.View, descs []overlay.Descriptor, self *profile.Profile) {
	rng := rand.New(rand.NewSource(9))
	self = profile.New()
	for i := 0; i < 20; i++ {
		self.Set(news.ID(rng.Int63n(200)), 0, float64(rng.Intn(2)))
	}
	v = overlay.NewView(10)
	descs = make([]overlay.Descriptor, 0, 20)
	for i := news.NodeID(0); i < 20; i++ {
		p := profile.New()
		for j := 0; j < 20; j++ {
			p.Set(news.ID(rng.Int63n(200)), 0, float64(rng.Intn(2)))
		}
		descs = append(descs, overlay.Descriptor{Node: i, Stamp: int64(i % 4), Profile: snapshotOf(p)})
	}
	return v, descs, self
}

// hotPathWorld builds the full-cycle world: peers in 4 interest
// communities publishing hotPathItems per cycle (cycles beyond the pre-generated
// schedule of 2000 gossip without BEEP traffic). When churn is true it adds
// a sustained crash-and-rejoin trace (≈1% of the population crashing per
// cycle, back after 5) with descriptor-TTL eviction active, so the pinned
// cycles exercise the whole membership path: event application, view wipes,
// bootstrap-from-online-sample and per-cycle eviction scans.
func hotPathWorld(peers int, eng EngineOptions, churn bool) *sim.Engine {
	const scheduledCycles = 2000
	w := sim.Communities(peers, 4, hotPathItems, scheduledCycles, "hp")
	nodeCfg := core.Config{FLike: 6, RPSViewSize: 20}.ForPopulation(peers)
	if churn {
		nodeCfg.DescriptorTTL = 15
		w.Churn = sim.ChurnTrace(sim.ChurnTraceConfig{
			Seed:      7,
			Nodes:     peers,
			From:      1,
			To:        scheduledCycles,
			CrashRate: 0.01, // steady-state churn: crashers rejoin, population holds
			Downtime:  5,
		})
	}
	w.NewPeer = func(id news.NodeID) sim.Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, rand.New(rand.NewSource(1000+int64(id))))
	}
	e, _ := w.NewEngine(eng.engine(sim.Config{Seed: 1, Cycles: scheduledCycles, BootstrapDegree: 5}))
	return e
}

// BenchmarkHotPath runs the family. The five scenario names are the keys of
// bench_baseline.txt, which is the output of
//
//	go test -run '^$' -bench BenchmarkHotPath -benchmem ./internal/experiments/
//
// and whatsup-benchdiff fails when a candidate's scenario set differs from it.
func BenchmarkHotPath(b *testing.B) {
	b.Run("merge", func(b *testing.B) {
		item, user := hotPathProfiles()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			item.Merged(user)
		}
	})
	b.Run("clone-diverge", func(b *testing.B) {
		item, _ := hotPathProfiles()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := item.Clone()
			c.Set(news.ID(i), 1, 1)
		}
	})
	b.Run("similarity-uncached", func(b *testing.B) {
		v, descs, self := hotPathView()
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			self.Set(news.ID(500+i%3), int64(i), 1) // version bump: cold cache
			v.InsertAll(descs, 99)
			v.TrimBySimilarity(rng, profile.WUP{}, self)
		}
	})
	b.Run("similarity-cached", func(b *testing.B) {
		v, descs, self := hotPathView()
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.InsertAll(descs, 99)
			v.TrimBySimilarity(rng, profile.WUP{}, self)
		}
	})
	b.Run("receive-liked", func(b *testing.B) {
		n, tmpl := hotPathReceiver(6)
		now := int64(60)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now++
			n.BeginCycle(now)
			it := news.Item{ID: news.ID(1<<20 + i), Title: "t", Created: now}
			n.Receive(core.ItemMessage{Item: it, Profile: tmpl, Hops: 1}, now)
		}
	})
}

// receiveLikedAllocs pins the per-receive allocation count of the liked BEEP
// path: the liker's own item profile (the struct and its merged entry array —
// the incoming profile is shared with the forward's other paths and never
// written) and the sends slice the targets are drawn straight into. The
// pre-copy-on-write implementation measured ~20 allocs/op on this workload
// shape (entry-at-a-time AverageIn, deep clones for every path, rng.Perm
// targets), copy-on-write clones ~8; every path now shares one profile. The
// pin is exact at every fanout the drivers use, up to Fig. 9's top: a target
// buffer that fits only small fanouts (a fixed [8] array) adds one at fLIKE
// 10 and 14. The test lives next to hotPathReceiver so the pinned workload
// is the same scenario the BenchmarkHotPath/receive-liked CI gate measures —
// the two cannot drift apart.
const receiveLikedAllocs = 3

func TestReceiveLikedAllocsPinned(t *testing.T) {
	for _, fLike := range []int{6, 10, 14} {
		n, tmpl := hotPathReceiver(fLike)
		next := int64(1 << 20)
		now := int64(60)
		receiveOne := func() {
			next++
			now++
			n.BeginCycle(now)
			it := news.Item{ID: news.ID(next), Title: "t", Created: now}
			n.Receive(core.ItemMessage{Item: it, Profile: tmpl, Hops: 1}, now)
		}
		// Warm the merge scratch before measuring, as a long-running node
		// would be.
		for i := 0; i < 50; i++ {
			receiveOne()
		}
		if avg := testing.AllocsPerRun(300, receiveOne); avg != receiveLikedAllocs {
			t.Errorf("fLIKE %d: receive-liked path allocates %.1f/op, pinned at %d", fLike, avg, receiveLikedAllocs)
		}
	}
}

// snapshotOf is p packed, by address, as a descriptor holds it.
func snapshotOf(p *profile.Profile) *profile.Packed {
	pk := p.Pack()
	return &pk
}
