package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"whatsup/internal/metrics"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// collectorDigest renders everything a run's draws leave in its collector:
// the quality figures (which read every item's registered audience), per-kind
// traffic, and each node's registered denominators and delivery counters.
// Cohort labels are registration-side annotations, not draws; the drivers
// that report cohorts hash their summaries through their own result.
func collectorDigest(c *metrics.Collector) string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%v R=%v F1=%v\n", c.Precision(), c.Recall(), c.F1())
	for k := metrics.MsgBeep; k <= metrics.MsgRefillReply; k++ {
		fmt.Fprintf(&b, "%v:%d/%d\n", k, c.Messages(k), c.Bytes(k))
	}
	for _, id := range c.NodeIDs() {
		ns := c.Node(id)
		fmt.Fprintf(&b, "node%d:%d,%d,%d,%d,%d\n", id, ns.Interested, ns.EligibleInterested,
			ns.Received, ns.ReceivedLiked, ns.DislikeDeliveries)
	}
	return b.String()
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestDriverOutputsPinned pins the deterministic result of every driver that
// assembles a simulation world to the sha256 captured at e876bb7, when each
// still hand-built its peers, collector registration, publication schedule
// and churn bookkeeping. The drivers now all go through sim.World; equal
// hashes prove the shared assembly makes the same draws and registers the
// same denominators as the eight copies it replaced.
func TestDriverOutputsPinned(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func() string
	}{
		{"run/WhatsUp", "6cbf41577d85a079c3598eec522ba3fcdb315e051cebc4384a413cf09b6b9368", func() string { return pinnedRun(WhatsUp) }},
		{"run/CF-Wup", "7e0ad9fa268ac2615c81350288192f6a358c56d51763df7722663ec0e5d4fd2d", func() string { return pinnedRun(CFWup) }},
		{"run/Gossip", "ad9bfcf44380aef10c8dcb526c2474db2fd8eec11a1ff077e058f71126a800e1", func() string { return pinnedRun(PlainGossip) }},
		{"churn-run", "50a65026cde3405e9cf899a8fc2605dc6b0ff9fa514132b829a3d75bdfc986b2", func() string {
			r := ChurnRun(Options{Seed: 3, Scale: 0.1}, ChurnConfig{
				ChurnOptions: ChurnOptions{ChurnRate: 0.25, FlashCrowd: 9, DepartureNotices: true, RefillWatermark: 0.5},
				Fanout:       6, Loss: 0.02,
			})
			return fmt.Sprintf("%+v", r)
		}},
		{"churn-bench", "613c3d6b1d5256c2e1e736f0438726dd2bf6bb45cdb87f7c9e9a3b007c6d82e5", func() string {
			// Named fields, captured at 341e85a from the bench's own result
			// struct before ChurnBench was folded into ChurnResult.
			r := ChurnBench(ChurnBenchConfig{
				ChurnOptions: ChurnOptions{ChurnRate: 0.2, DepartureNotices: true, RefillWatermark: 0.5},
				Peers:        300,
			})
			return fmt.Sprintf("events=%d online=%d f1=%v stable=%v joiner=%v eligible=%v rejoiner=%v ghost-end=%v last-departure=%d healed-at=%d time-to-healed=%d",
				r.Events, r.FinalOnline, r.F1, r.Stable.F1(), r.Joiner.F1(), r.Joiner.EligibleF1(), r.Rejoiner.F1(),
				r.GhostFraction[len(r.GhostFraction)-1], r.LastDeparture, r.HealedAt, r.TimeToHealed)
		}},
		{"hotpath/cycle", "5f8f176aad8a51eba6982c08c152e0772c2c4e0fdda1324f0cfd3720b83b389c", func() string {
			return pinnedSteps(hotPathWorld(300, EngineOptions{}, false, nil))
		}},
		{"hotpath/churn-cycle", "21a4540b5c8382d8da627f58330a551dd040c0afc8af719b1d1c7b501b34da0d", func() string {
			return pinnedSteps(hotPathWorld(300, EngineOptions{}, true, nil))
		}},
		{"hotpath/sharded-cycle", "cec1735d8763c4cc9d9a58690686bdd43996710950995f0aca13c025fe726cad", func() string {
			e := hotPathWorld(300, EngineOptions{Shards: hotPathShards}, false, nil)
			digest := pinnedSteps(e)
			// The hash was captured when these three routing counters were
			// all of ShardStats: they are rendered as %+v rendered it then.
			st := e.ShardStats()
			return digest + fmt.Sprintf("{Crossings:%d Batches:%d BatchBytes:%d}", st.Crossings, st.Batches, st.BatchBytes)
		}},
		{"adversarial/attacked", "89c181743b5def13bedffe6a0ce34e1b8fad838da255e0e973b8244ca3ea0a86", func() string {
			cfg := AdversarialConfig{Peers: 200, Cycles: 20, Poison: true, PartitionK: 2}.withDefaults()
			pt := runAdversarialPoint(cfg, WhatsUp, true)
			return collectorDigest(pt.col) + fmt.Sprintf("%+v %+v %d %d %v", pt.adv, pt.timeline, pt.spam, pt.honest, pt.honestF1)
		}},
		{"fig7-trial", "607c9df87a1817d8c82402c9e1f4d1f27683251c99c3088d58c0c58152f2b24a", func() string {
			cfg := Fig7Config{Trials: 1, EventCycle: 12, TotalCycles: 30}.withDefaults()
			return fmt.Sprintf("%+v", fig7Trial(Options{Seed: 3, Scale: 0.1}.WithDefaults(), cfg, profile.WUP{}, 3))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := sha(tc.run()); got != tc.want {
				t.Errorf("%s hash %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

func pinnedRun(alg Algorithm) string {
	o := Options{Seed: 3, Scale: 0.1}.WithDefaults()
	out := Run(RunConfig{Dataset: must(DatasetByName("survey", o)), Alg: alg, Fanout: 6, Seed: o.Seed, Loss: 0.05})
	if out.Col.Messages(metrics.MsgBeep) == 0 || out.Col.Recall() == 0 {
		panic("the run disseminated nothing; the pin would be vacuous")
	}
	return collectorDigest(out.Col)
}

func pinnedSteps(e *sim.Engine) string {
	for i := 0; i < 3; i++ {
		e.Step()
	}
	return collectorDigest(e.Collector())
}

// TestExhibitsPinned pins what each exhibit prints — the rendered String()
// of every driver at Options{Seed: 3, Scale: 0.08} and reduced populations —
// to the sha256 captured at 3edad35, when every driver still wrote out its
// own grid loop, row type and P/R/F1 reads. A changed grid entry, seed or
// format verb moves a hash. The exhibits marked sharded run a second time
// under Workers 2 × Shards 4 and must print the same bytes: the engine's
// bit-identity contract, checked where the paper's numbers come out. They
// are the ones that drive or read the engine differently — Table III for
// the sweep (every algorithm and baseline; the unmarked exhibits are further
// grids through the same Options.run and the same quality measure), Figures
// 6, 10 and 11 for the hop histograms, popularity buckets and per-node
// scores, Figure 7 with its own engine, hooks and joiner, Figure 8's lossy
// half, the two churn scenarios and the adversarial cells — so that a second
// pass over every grid does not double the package's time under -race.
//
// fig3/synthetic and table1 are the two hashes not taken at 3edad35 as it
// stood: there graph.Communities broke equal modularity gains by map order
// and the synthetic workload came out with 27 items most of the time and 36
// otherwise. They were captured at 3edad35 plus the tie-break fix in
// internal/graph/community.go, which always yields the 27-item variant.
func TestExhibitsPinned(t *testing.T) {
	churn := ChurnOptions{ChurnRate: 0.2, DepartureNotices: true, RefillWatermark: 0.5}
	cases := []struct {
		name    string
		want    string
		sharded bool
		run     func(o Options) string
	}{
		{"table1", "d329501f3abb2820493bcd4b37705f0402c7373b7b3adc36a26fcc2356165e77", false, func(o Options) string { return Table1(o).String() }},
		{"table3", "15b40ab0445a74711434bf512ac78d4e6b7d99cbc6cacaed2f653bdceff8f4d8", true, func(o Options) string { return Table3(o).String() }},
		{"table4", "0980da9652a967871386e81ebd6dd6020f0d3878e2a283c9355ead8db39e3e17", false, func(o Options) string { return Table4(o).String() }},
		{"table5", "1ab0e009b990650b458e88108317bc242f5e5eaf733d99c2919d4ddecac39ac6", false, func(o Options) string { return Table5(o).String() }},
		{"table6", "d83d46d301943232312113a25b89b67c1d0514a0f15467cbe479b1e278fd80ad", false, func(o Options) string { return Table6(o).String() }},
		// Figure 3's two large workloads run at populations of 31 and 30
		// users: at 0.08 they cost more than every other pin together.
		{"fig3/synthetic", "2684d40606bee450d6f445d97aa3e116b41c12408e732610927f26760c793a02", false, func(o Options) string {
			o.Scale = 0.01
			return Fig3("synthetic", o).String()
		}},
		{"fig3/digg", "f071a3ad209649d541037f5b00146a807c4982bb3b0b4ccd817a00f838fa7df7", false, func(o Options) string {
			o.Scale = 0.04
			return Fig3("digg", o).String()
		}},
		{"fig3/survey", "fdcabb5481bf372c39115c763b2b9328336427c21d169cf7a878e05ae7e41a6e", false, func(o Options) string { return Fig3("survey", o).String() }},
		{"fig4", "0f752d19b30ee1b4ca770f7cdbe0221a7ea9db3a77db0187afc6606871cf9525", false, func(o Options) string { return Fig4(o).String() }},
		{"fig5", "7aa8e7a667d72432808059db2c0fc9aa58e93be6826372e254107fa2e224b056", false, func(o Options) string { return Fig5(o).String() }},
		{"fig6", "5f2cb26540906466ca22e15c2652530d03a80b9eedf788a1da1181c831a0b67b", true, func(o Options) string { return Fig6(o).String() }},
		{"fig7", "1a06581f6cd02481f90912e9209c44a3caee44e4d129ea6823a9883038d4ae44", true, func(o Options) string {
			return Fig7(o, Fig7Config{Trials: 2, EventCycle: 15, TotalCycles: 40, Window: 10}).String()
		}},
		{"fig8", "3a0b96a88a543346cd528ce06378a03d391a7f661ee844f531cb40bd8b4352a0", true, func(o Options) string {
			return Fig8(o, Fig8Config{Fanouts: []int{3, 6, 10}, Cycles: 20, SkipLive: true}).String()
		}},
		{"fig9", "4463ce610d5a2a27b1f292fd2ac1ebd1309babc6b46cc6062fe3f5595c4aa23c", false, func(o Options) string { return Fig9(o).String() }},
		{"fig10", "f92bb8f540c81a5394fdab52230ccc233571cb2f2386a867cf0cc4ab6a64602d", true, func(o Options) string { return Fig10(o).String() }},
		{"fig11", "c47792e45a8b063aa2a44747f3240fbee7989303dec30f43937eede611492af6", true, func(o Options) string { return Fig11(o).String() }},
		{"ablations", "76805cffa48ebc75a14182bdfcbb9481716c201122dcc97f4c03a31bd7d9550f", false, func(o Options) string {
			var b strings.Builder
			for _, r := range Ablations(o) {
				b.WriteString(r.String())
			}
			return b.String()
		}},
		{"churn-run", "8c68ecb6005243b36c27557557f345452973fac7141eec1656c97732b8f91159", true, func(o Options) string {
			c := churn
			c.FlashCrowd = 7
			return ChurnRun(o, ChurnConfig{ChurnOptions: c, EngineOptions: o.EngineOptions, Fanout: 6, Loss: 0.02}).String()
		}},
		{"churn-bench", "9588a63fcad72ada7154b77c0ae36db636d2ddd55e21fbedb46fb1f975c20959", true, func(o Options) string {
			return ChurnBench(ChurnBenchConfig{ChurnOptions: churn, EngineOptions: o.EngineOptions, Peers: 200, Cycles: 36}).String()
		}},
		{"adversarial", "f4f69fd56d10774680c3a11e0ed921543e68a8d0b8f39496c5c99e0610a6173c", true, func(o Options) string {
			return AdversarialRun(AdversarialConfig{EngineOptions: o.EngineOptions, Peers: 200, Cycles: 20, Poison: true, PartitionK: 2}).String()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engines := []EngineOptions{{}}
			if tc.sharded && !testing.Short() {
				engines = append(engines, EngineOptions{Workers: 2, Shards: 4})
			}
			for _, eng := range engines {
				if got := sha(tc.run(Options{Seed: 3, Scale: 0.08, EngineOptions: eng})); got != tc.want {
					t.Errorf("%s under %+v prints hash %s, want %s", tc.name, eng, got, tc.want)
				}
			}
		})
	}
}
