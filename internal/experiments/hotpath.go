package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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
// cache, the full BEEP receive-liked path, and one complete gossip cycle at
// deployment-times-20 scale. The same scenario closures back both
// `go test -bench BenchmarkHotPath` and `whatsup-bench -run hotpath`, which
// serializes the measurements into BENCH_hotpath.json — the recorded perf
// trajectory the CI benchdiff gate compares against.

// HotPathConfig sizes the scenarios.
type HotPathConfig struct {
	// EngineOptions size the engine of the full-cycle scenarios. Shards is
	// the slab count of the sharded-cycle and flash-crowd scenarios only
	// (0 = 4): the plain cycle scenarios always run single-slab, so the
	// recorded trajectory keeps comparing like with like.
	EngineOptions
	// CyclePeers is the population of the full-cycle scenario (default 5000).
	CyclePeers int
	// CycleItems is how many items are published per cycle in the full-cycle
	// scenario (default 6; cycles beyond the pre-generated schedule of 2000
	// gossip without BEEP traffic).
	CycleItems int
	// FlashCrowdPeers, when > 0, enables the large-scale flash-crowd
	// scenario at that total population (the ROADMAP's north star runs it at
	// 1_000_000). Off by default: the world needs ~10 GB of RAM per 1M peers
	// and a cycle takes tens of seconds per core, far beyond CI budgets.
	FlashCrowdPeers int
}

func (c HotPathConfig) withDefaults() HotPathConfig {
	if c.CyclePeers <= 0 {
		c.CyclePeers = 5000
	}
	if c.CycleItems <= 0 {
		c.CycleItems = 6
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	return c
}

// NamedBench is one hot-path scenario.
type NamedBench struct {
	Name  string
	Bench func(b *testing.B)
}

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

// hotPathWorld builds the full-cycle scenario world on the given slab count.
// When churn is true it adds a sustained crash-and-rejoin trace (≈1% of the
// population crashing per cycle, back after 5) with descriptor-TTL eviction
// active, so the measured steady-state cycle exercises the whole membership
// path: event application, view wipes, bootstrap-from-online-sample and
// per-cycle eviction scans.
func hotPathWorld(cfg HotPathConfig, churn bool, links *faultnet.Policy, shards int) *sim.Engine {
	const scheduledCycles = 2000
	w := sim.Communities(cfg.CyclePeers, 4, cfg.CycleItems, scheduledCycles, "hp")
	nodeCfg := core.Config{FLike: 6, RPSViewSize: 20}.ForPopulation(cfg.CyclePeers)
	if churn {
		nodeCfg.DescriptorTTL = 15
		w.Churn = sim.ChurnTrace(sim.ChurnTraceConfig{
			Seed:      7,
			Nodes:     cfg.CyclePeers,
			From:      1,
			To:        scheduledCycles,
			CrashRate: 0.01, // steady-state churn: crashers rejoin, population holds
			Downtime:  5,
		})
	}
	w.NewPeer = func(id news.NodeID) sim.Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, rand.New(rand.NewSource(1000+int64(id))))
	}
	cfg.Shards = shards
	e, _ := w.NewEngine(cfg.engine(sim.Config{Seed: 1, Cycles: scheduledCycles, BootstrapDegree: 5, Links: links}))
	return e
}

// hotPathFlashWorld builds the large-scale flash-crowd world: a base
// population of ~15/16 of FlashCrowdPeers with the remaining sixteenth
// joining in a burst spread over four cycles from cycle 2 — breaking news
// hitting a million-peer deployment. The world runs on the sharded engine
// (slab membership, pooled cross-shard batches) with the large-scale config
// bounds applied (core.Config.ForPopulation), and publishes only two items
// per cycle so the measured cost is membership and gossip at scale rather
// than an unbounded BEEP flood.
func hotPathFlashWorld(cfg HotPathConfig) *sim.Engine {
	const scheduledCycles = 64
	total := cfg.FlashCrowdPeers
	joiners := total / 16
	base := total - joiners
	w := sim.Communities(base, 4, 2, scheduledCycles, "fc")
	w.Churn = sim.FlashCrowd(2, news.NodeID(base), joiners, joiners/4)
	nodeCfg := core.Config{FLike: 6, RPSViewSize: 20, DescriptorTTL: 15}.ForPopulation(total)
	w.NewPeer = func(id news.NodeID) sim.Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, rand.New(rand.NewSource(1000+int64(id))))
	}
	e, _ := w.NewEngine(cfg.engine(sim.Config{Seed: 1, Cycles: scheduledCycles, BootstrapDegree: 5}))
	return e
}

// hotPathLinks builds the faultnet-cycle policy: a straggler cohort with
// lossy slow links plus a long-lived 2-way partition, so the measured cycle
// pays the policy lookup and the stateless drop draw on every message leg.
func hotPathLinks(cfg HotPathConfig) *faultnet.Policy {
	ids := make([]news.NodeID, cfg.CyclePeers)
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

// HotPathBenchmarks returns the scenario list. The full-cycle world is built
// lazily on first use and then stepped, so repeated timer runs measure
// successive steady-state cycles.
func HotPathBenchmarks(cfg HotPathConfig) []NamedBench {
	cfg = cfg.withDefaults()
	var engine, churnEngine, faultEngine *sim.Engine
	var shardEngine, shardChurnEngine, flashEngine *sim.Engine
	benches := []NamedBench{
		{Name: "merge", Bench: func(b *testing.B) {
			item, user := hotPathProfiles()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := item.Clone()
				p.MergeAverage(user)
			}
		}},
		{Name: "clone-diverge", Bench: func(b *testing.B) {
			item, _ := hotPathProfiles()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := item.Clone()
				c.Set(news.ID(i), 1, 1)
			}
		}},
		{Name: "similarity-uncached", Bench: func(b *testing.B) {
			v, descs, self := hotPathView()
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				self.Set(news.ID(500+i%3), int64(i), 1) // version bump: cold cache
				v.InsertAll(descs, 99)
				v.TrimBySimilarity(rng, profile.WUP{}, self)
			}
		}},
		{Name: "similarity-cached", Bench: func(b *testing.B) {
			v, descs, self := hotPathView()
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.InsertAll(descs, 99)
				v.TrimBySimilarity(rng, profile.WUP{}, self)
			}
		}},
		{Name: "receive-liked", Bench: func(b *testing.B) {
			n, tmpl := hotPathReceiver(6)
			now := int64(60)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				now++
				n.BeginCycle(now)
				it := news.Item{ID: news.ID(1<<20 + i), Title: "t", Created: now}
				n.Receive(core.ItemMessage{Item: it, Profile: tmpl.Clone(), Hops: 1}, now)
			}
		}},
		{Name: fmt.Sprintf("cycle-%dpeers", cfg.CyclePeers), Bench: func(b *testing.B) {
			if engine == nil {
				engine = hotPathWorld(cfg, false, nil, 0)
				engine.Step() // warm caches and scratch before measuring
				b.ResetTimer()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Step()
			}
		}},
		{Name: fmt.Sprintf("churn-cycle-%dpeers", cfg.CyclePeers), Bench: func(b *testing.B) {
			if churnEngine == nil {
				churnEngine = hotPathWorld(cfg, true, nil, 0)
				churnEngine.Step()
				b.ResetTimer()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				churnEngine.Step()
			}
		}},
		{Name: "faultnet-cycle", Bench: func(b *testing.B) {
			if faultEngine == nil {
				faultEngine = hotPathWorld(cfg, false, hotPathLinks(cfg), 0)
				faultEngine.Step()
				b.ResetTimer()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				faultEngine.Step()
			}
		}},
		{Name: fmt.Sprintf("sharded-cycle-%dpeers", cfg.CyclePeers), Bench: func(b *testing.B) {
			if shardEngine == nil {
				shardEngine = hotPathWorld(cfg, false, nil, cfg.Shards)
				shardEngine.Step()
				b.ResetTimer()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shardEngine.Step()
			}
		}},
		{Name: fmt.Sprintf("sharded-churn-cycle-%dpeers", cfg.CyclePeers), Bench: func(b *testing.B) {
			if shardChurnEngine == nil {
				shardChurnEngine = hotPathWorld(cfg, true, nil, cfg.Shards)
				shardChurnEngine.Step()
				b.ResetTimer()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shardChurnEngine.Step()
			}
		}},
	}
	if cfg.FlashCrowdPeers > 0 {
		benches = append(benches, NamedBench{
			Name: fmt.Sprintf("flash-crowd-%dpeers", cfg.FlashCrowdPeers),
			Bench: func(b *testing.B) {
				if flashEngine == nil {
					flashEngine = hotPathFlashWorld(cfg)
					flashEngine.Step() // cycle 1: steady state before the crowd hits
					b.ResetTimer()
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					flashEngine.Step() // cycles 2+: the crowd is arriving
				}
			},
		})
	}
	return benches
}

// HotPathScenario is one measured scenario of the recorded trajectory.
type HotPathScenario struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// HotPathResult is one BENCH_hotpath.json trajectory entry.
type HotPathResult struct {
	Label      string `json:"label,omitempty"`
	GoVersion  string `json:"go"`
	MaxProcs   int    `json:"maxprocs"`
	CyclePeers int    `json:"cycle_peers"`
	// EngineShards is the slab count of the sharded scenarios in this entry.
	EngineShards int `json:"engine_shards,omitempty"`
	// FlashCrowdPeers is the flash-crowd population when that scenario ran.
	FlashCrowdPeers int               `json:"flash_crowd_peers,omitempty"`
	Scenarios       []HotPathScenario `json:"scenarios"`
}

// HotPath measures every scenario with the testing harness and returns the
// trajectory entry. Wall-clock numbers are machine-dependent; allocs/op is
// the portable signal the CI gate pins.
func HotPath(cfg HotPathConfig) HotPathResult {
	cfg = cfg.withDefaults()
	r := HotPathResult{
		GoVersion:       runtime.Version(),
		MaxProcs:        runtime.GOMAXPROCS(0),
		CyclePeers:      cfg.CyclePeers,
		EngineShards:    cfg.Shards,
		FlashCrowdPeers: cfg.FlashCrowdPeers,
	}
	for _, nb := range HotPathBenchmarks(cfg) {
		br := testing.Benchmark(nb.Bench)
		r.Scenarios = append(r.Scenarios, HotPathScenario{
			Name:        nb.Name,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Iterations:  br.N,
		})
	}
	return r
}

// String renders the scenarios in `go test -bench` style.
func (r HotPathResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hot-path microbenchmarks (%s, GOMAXPROCS=%d):\n", r.GoVersion, r.MaxProcs)
	for _, s := range r.Scenarios {
		fmt.Fprintf(&b, "  %-24s %12.1f ns/op %8d B/op %6d allocs/op  (n=%d)\n",
			s.Name, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp, s.Iterations)
	}
	b.WriteString("  (serialized to the BENCH_hotpath.json trajectory by whatsup-bench -run hotpath)")
	return b.String()
}
