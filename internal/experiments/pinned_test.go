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
