package experiments

import (
	"math/rand"
	"runtime"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// The hot-path fixtures build the per-event work the rest of the system is
// built on (the zero-allocation work): the single-pass profile merge as a
// liker folds into the item profile it was handed, a profile copy and its
// first edit, a similarity trim with and without the view's survivor score
// cache, and the full BEEP receive-liked path. TestHotPathPinned pins each
// one's allocs/op and B/op exactly; ns/op is benchmark/'s per-layer
// kernels' to measure. They are fixture code, not product, so they live in
// this test file beside their callers, with hotPathWorld — one gossip cycle
// of a community world, plain, under churn and sharded — behind the hotpath
// cases of TestDriverOutputsPinned and BenchmarkFlashCrowd's engine sizing.
// What a whole cycle costs is benchmark/'s to measure, end to end.
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
func hotPathWorld(peers int, eng EngineOptions, churn bool) (*sim.Engine, *metrics.Collector) {
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
	return w.NewEngine(eng.engine(sim.Config{Seed: 1, Cycles: scheduledCycles, BootstrapDegree: 5}))
}

// hotPathPins are the per-event costs, exact: allocs/op and B/op of each
// scenario after a warm-up. Allocation counts and sizes are deterministic, so
// any drift is a change in what the path allocates. receive-liked is a
// receive the way the sim engine makes it (core.Node.AppendReceive, no fold
// target): its two are the liker's own item profile, the struct and its
// merged entry array, because the incoming profile is shared with the
// forward's other paths and never written. The sends are appended to the
// caller's buffer, which has grown in the warm-up, so the count and the bytes
// hold at every fanout the drivers use, up to Fig. 9's top. pooled marks the
// scenarios that borrow scratch from a sync.Pool, which the race detector
// empties at random: they are checked only without it.
var hotPathPins = []struct {
	name          string
	allocs, bytes uint64
	pooled        bool
	event         func() func()
}{
	{"merge", 1, 1792, false, func() func() {
		item, user := hotPathProfiles()
		return func() { item.Merged(user) }
	}},
	{"clone-diverge", 1, 640, false, func() func() {
		item, _ := hotPathProfiles()
		i := 0
		return func() {
			i++
			c := item.Clone()
			c.Set(news.ID(i), 1, 1)
		}
	}},
	{"similarity-uncached", 0, 0, true, func() func() {
		v, descs, self := hotPathView()
		rng := rand.New(rand.NewSource(2))
		i := 0
		return func() {
			i++
			self.Set(news.ID(500+i%3), int64(i), 1) // version bump: cold cache
			v.InsertAll(descs, 99)
			v.TrimBySimilarity(rng, profile.WUP{}, self)
		}
	}},
	{"similarity-cached", 0, 0, true, func() func() {
		v, descs, self := hotPathView()
		rng := rand.New(rand.NewSource(2))
		return func() {
			v.InsertAll(descs, 99)
			v.TrimBySimilarity(rng, profile.WUP{}, self)
		}
	}},
	{"receive-liked/fLIKE6", 2, 2096, false, receiveLiked(6)},
	{"receive-liked/fLIKE10", 2, 2096, false, receiveLiked(10)},
	{"receive-liked/fLIKE14", 2, 2096, false, receiveLiked(14)},
}

// receiveLiked is the receive-liked event at fanout fLike: one cycle begins
// and one fresh item arrives, on a receiver already warmed by 50 of them, as
// a long-running node would be.
func receiveLiked(fLike int) func() func() {
	return func() func() {
		n, tmpl := hotPathReceiver(fLike)
		next, now := int64(1<<20), int64(60)
		var sends []core.Send
		receive := func() {
			next++
			now++
			n.BeginCycle(now)
			it := news.Item{ID: news.ID(next), Title: "t", Created: now}
			_, sends = n.AppendReceive(sends[:0], nil, core.ItemMessage{Item: it, Profile: tmpl, Hops: 1}, now)
		}
		for i := 0; i < 50; i++ {
			receive()
		}
		return receive
	}
}

func TestHotPathPinned(t *testing.T) {
	for _, pin := range hotPathPins {
		t.Run(pin.name, func(t *testing.T) {
			if pin.pooled && raceEnabled {
				t.Skip("the race detector drops pooled scratch at random")
			}
			allocs, bytes := perRun(300, pin.event())
			if allocs != pin.allocs || bytes != pin.bytes {
				t.Errorf("%d allocs/op, %d B/op; pinned at %d, %d", allocs, bytes, pin.allocs, pin.bytes)
			}
		})
	}
}

// perRun measures f as testing.AllocsPerRun does — one warm-up call, then
// the heap's counters over runs calls on one P, divided as integers — and
// reports bytes beside allocations. A collection first keeps the runs clear
// of the next one, which allocates on its own account: one that fell inside
// the fLIKE 14 runs added 7 allocations and 752 bytes, a stray 2 B/op.
func perRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// snapshotOf is p packed, by address, as a descriptor holds it.
func snapshotOf(p *profile.Profile) *profile.Packed {
	pk := p.Pack()
	return &pk
}
