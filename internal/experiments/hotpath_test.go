package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// The hot-path benchmark family measures the per-event costs the rest of
// the system is built on (PR 3's zero-allocation work): the single-pass
// profile merge, copy-on-write clone+diverge, the versioned similarity
// cache, the full BEEP receive-liked path, and one complete gossip cycle —
// plain, under churn, under a fault policy and on the sharded engine. It is
// fixture code, not product, so it lives in this test file beside its only
// callers: BenchmarkHotPath, whose allocs/op and B/op the CI benchdiff gate
// compares against the committed bench_baseline.txt (ns/op is printed, never
// gated), the receive-liked allocation pin below, and the hotpath cases of
// TestDriverOutputsPinned.
const (
	// hotPathPeers and hotPathItems (published per cycle) size the
	// full-cycle scenarios. Allocations per cycle scale with the population;
	// the 5k-peer and 1M-peer figures are in the README's measuring table.
	hotPathPeers = 1000
	hotPathItems = 4
	// hotPathWorkers is the engine pool of the full-cycle scenarios, stated
	// rather than taken from GOMAXPROCS so bench_baseline.txt means the same
	// thing on every host.
	hotPathWorkers = 2
	// hotPathShards is the slab count of the sharded scenarios.
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
		descs = append(descs, overlay.Descriptor{Node: i, Stamp: 0, Profile: p})
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
// plus twice-capacity candidates of 20-entry profiles.
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
		descs = append(descs, overlay.Descriptor{Node: i, Stamp: int64(i % 4), Profile: p})
	}
	return v, descs, self
}

// hotPathWorld builds the full-cycle scenario world: peers in 4 interest
// communities publishing hotPathItems per cycle (cycles beyond the pre-generated
// schedule of 2000 gossip without BEEP traffic). When churn is true it adds
// a sustained crash-and-rejoin trace (≈1% of the population crashing per
// cycle, back after 5) with descriptor-TTL eviction active, so the measured
// steady-state cycle exercises the whole membership path: event application,
// view wipes, bootstrap-from-online-sample and per-cycle eviction scans.
func hotPathWorld(peers int, eng EngineOptions, churn bool, links *faultnet.Policy) *sim.Engine {
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
	e, _ := w.NewEngine(eng.engine(sim.Config{Seed: 1, Cycles: scheduledCycles, BootstrapDegree: 5, Links: links}))
	return e
}

// hotPathLinks builds the faultnet-cycle policy: a straggler cohort with
// lossy slow links plus a long-lived 2-way partition, so the measured cycle
// pays the policy lookup and the stateless drop draw on every message leg.
func hotPathLinks(peers int) *faultnet.Policy {
	ids := make([]news.NodeID, peers)
	for i := range ids {
		ids[i] = news.NodeID(i)
	}
	p := faultnet.Stragglers(ids, 0.2, 7, faultnet.Rule{Loss: 0.05})
	groups := make(map[news.NodeID]int, len(ids))
	for i, id := range ids {
		groups[id] = i % 2
	}
	// The window heals early: steady-state cycles still pay the schedule
	// check on every link, which is the cost being measured.
	return p.AddPartition(faultnet.Partition{Groups: groups, Start: 100, Heal: 110})
}

// benchSteps measures successive cycles of one engine: the world is built on
// first use, stepped once to warm caches and scratch, and then keeps stepping
// across the harness's timer runs. Allocations per cycle fall as the world
// warms up, so allocs/op is a function of how many cycles were measured:
// the baseline fixes that with -benchtime 45x (cycles 3–47), which makes
// the figure repeat to ±2 allocations on any host; under the default
// time-based benchtime a slower host measures fewer, costlier cycles.
func benchSteps(build func() *sim.Engine) func(b *testing.B) {
	var e *sim.Engine
	return func(b *testing.B) {
		if e == nil {
			e = build()
			e.Step()
			b.ResetTimer()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	}
}

// BenchmarkHotPath runs the family. The ten scenario names are the keys of
// bench_baseline.txt, which is the output of
//
//	go test -run '^$' -bench BenchmarkHotPath -skip BenchmarkHotPath/cycle -benchmem ./internal/experiments/
//	go test -run '^$' -bench BenchmarkHotPath/cycle -benchtime 45x -benchmem ./internal/experiments/
//
// and whatsup-benchdiff fails when a candidate's scenario set differs from it.
func BenchmarkHotPath(b *testing.B) {
	pool := EngineOptions{Workers: hotPathWorkers}
	sharded := EngineOptions{Workers: hotPathWorkers, Shards: hotPathShards}
	world := func(eng EngineOptions, churn bool) func(b *testing.B) {
		return benchSteps(func() *sim.Engine { return hotPathWorld(hotPathPeers, eng, churn, nil) })
	}

	b.Run("merge", func(b *testing.B) {
		item, user := hotPathProfiles()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := item.Clone()
			p.MergeAverage(user)
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
			n.Receive(core.ItemMessage{Item: it, Profile: tmpl.Clone(), Hops: 1}, now)
		}
	})
	b.Run(fmt.Sprintf("cycle-%dpeers", hotPathPeers), world(pool, false))
	b.Run(fmt.Sprintf("churn-cycle-%dpeers", hotPathPeers), world(pool, true))
	b.Run("faultnet-cycle", benchSteps(func() *sim.Engine {
		return hotPathWorld(hotPathPeers, pool, false, hotPathLinks(hotPathPeers))
	}))
	b.Run(fmt.Sprintf("sharded-cycle-%dpeers", hotPathPeers), world(sharded, false))
	b.Run(fmt.Sprintf("sharded-churn-cycle-%dpeers", hotPathPeers), world(sharded, true))
}

// maxReceiveLikedAllocs pins the per-receive allocation budget of the liked
// BEEP path (copy-on-write clone of the incoming item profile, one
// MergeAverage slice, the sends slice, fLIKE−1 COW clone structs, amortized
// map/profile growth). The pre-COW implementation measured ~20 allocs/op on
// this exact workload shape (entry-at-a-time AverageIn, deep clones,
// rng.Perm targets); the acceptance criterion is a ≥2× reduction, so the
// pin leaves headroom above the ~8 measured today without letting the old
// cost back in. The test lives next to hotPathReceiver so the pinned
// workload is the same scenario the BenchmarkHotPath/receive-liked CI gate
// measures — the two cannot drift apart.
const maxReceiveLikedAllocs = 10

func TestReceiveLikedAllocsPinned(t *testing.T) {
	n, tmpl := hotPathReceiver(6)
	next := int64(1 << 20)
	now := int64(60)
	receiveOne := func() {
		next++
		now++
		n.BeginCycle(now)
		it := news.Item{ID: news.ID(next), Title: "t", Created: now}
		n.Receive(core.ItemMessage{Item: it, Profile: tmpl.Clone(), Hops: 1}, now)
	}
	// Warm the scratch buffers (target sample, merge capacity) before
	// measuring, as a long-running node would be.
	for i := 0; i < 50; i++ {
		receiveOne()
	}
	avg := testing.AllocsPerRun(300, receiveOne)
	if avg > maxReceiveLikedAllocs {
		t.Fatalf("receive-liked path allocates %.1f/op, budget %d", avg, maxReceiveLikedAllocs)
	}
}
