// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V) at a reduced scale, one bench per exhibit. Each bench reports
// the exhibit's headline numbers as custom metrics, so `go test -bench=.`
// doubles as a smoke reproduction; cmd/whatsup-bench runs the same drivers
// at larger scales with full output.
package whatsup_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/experiments"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// benchOptions keeps bench runs fast and deterministic.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 1, Scale: 0.1, Workers: 2}
}

// scalingWorld builds a 2-community world of n peers for the engine-scaling
// benchmark: even nodes like even items, odd nodes like odd items.
func scalingWorld(n, items, cycles int, seed int64) ([]sim.Peer, []sim.Publication, *metrics.Collector) {
	opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
		return int(node)%2 == int(item)%2
	})
	cfg := core.Config{FLike: 6, RPSViewSize: 12, ProfileWindow: int64(cycles)}
	peers := make([]sim.Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = core.NewNode(news.NodeID(i), "", cfg, opinions,
			rand.New(rand.NewSource(seed+int64(i))))
	}
	col := metrics.NewCollector()
	pubs := make([]sim.Publication, 0, items)
	for k := 0; k < items; k++ {
		source := news.NodeID((2*k + k%2) % n)
		if int(source)%2 != k%2 {
			source = news.NodeID((int(source) + 1) % n)
		}
		it := news.New(fmt.Sprintf("item-%d", k), "d", "l", int64(1+k*cycles/items), source)
		it.ID = news.ID(k)
		pubs = append(pubs, sim.Publication{Cycle: int64(1 + k*cycles/items), Source: source, Item: it})
		col.RegisterItem(it.ID, n/2)
	}
	for i := 0; i < n; i++ {
		col.RegisterNode(news.NodeID(i), items/2)
	}
	return peers, pubs, col
}

// BenchmarkEngineScaling measures the parallel engine itself: one fixed
// 1 000-peer run at 1, 2, 4 and 8 workers. Results are bit-identical across
// the sub-benchmarks (the engine's determinism contract); only wall-clock
// changes. Speedup requires GOMAXPROCS > 1 — on a single-core host all
// worker counts degenerate to serial execution.
func BenchmarkEngineScaling(b *testing.B) {
	const peersN, items, cycles = 1000, 60, 10
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				peers, pubs, col := scalingWorld(peersN, items, cycles, 1)
				e := sim.New(sim.Config{
					Seed: 1, Cycles: cycles, LossRate: 0.05, Workers: workers,
					Publications: pubs,
				}, peers, col)
				b.StartTimer()
				e.Bootstrap()
				e.Run()
				f1 = col.F1()
			}
			b.ReportMetric(f1, "F1")
		})
	}
}

// BenchmarkHotPath measures the per-event costs of the gossip hot path: the
// single-pass item-profile merge, copy-on-write clone+diverge, similarity
// scoring with a cold and a warm cache, the full BEEP receive-liked path and
// one complete gossip cycle. The 5k-peer cycle of the committed trajectory
// (BENCH_hotpath.json, regenerated by `whatsup-bench -run hotpath`) is
// scaled down here so the CI bench smoke stays fast; allocs/op is identical
// at any population, and the benchdiff CI gate pins it against the
// committed bench_baseline.txt. The engine pool is stated rather than left to
// EngineOptions' zero value (serial): the baseline was recorded on a
// GOMAXPROCS-sized pool.
func BenchmarkHotPath(b *testing.B) {
	cfg := experiments.HotPathConfig{
		EngineOptions: experiments.EngineOptions{Workers: runtime.GOMAXPROCS(0)},
		CyclePeers:    1000, CycleItems: 4,
	}
	for _, nb := range experiments.HotPathBenchmarks(cfg) {
		b.Run(nb.Name, nb.Bench)
	}
}

func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(benchOptions())
		if len(r.Rows) != 3 {
			b.Fatal("workloads missing")
		}
	}
}

func BenchmarkTable3BestOfEachApproach(b *testing.B) {
	var f1 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(benchOptions())
		f1 = r.Row("WhatsUp").F1
	}
	b.ReportMetric(f1, "whatsup-F1")
}

func BenchmarkTable4DislikePath(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		share = experiments.Table4(benchOptions()).ViaDislikeShare()
	}
	b.ReportMetric(share, "via-dislike-share")
}

func BenchmarkTable5ExplicitFiltering(b *testing.B) {
	var cascadeRecall, whatsupRecall float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table5(benchOptions())
		cascadeRecall = r.Row("digg", "Cascade").Recall
		whatsupRecall = r.Row("digg", "WhatsUp").Recall
	}
	b.ReportMetric(cascadeRecall, "cascade-recall")
	b.ReportMetric(whatsupRecall, "whatsup-recall")
}

func BenchmarkTable6MessageLoss(b *testing.B) {
	var clean, lossy float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table6(benchOptions())
		clean = r.Cell(0, 6).F1
		lossy = r.Cell(0.20, 6).F1
	}
	b.ReportMetric(clean, "F1-loss0-f6")
	b.ReportMetric(lossy, "F1-loss20-f6")
}

func BenchmarkFig3F1VsFanout(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3("survey", benchOptions())
		for _, s := range r.Series {
			if s.Alg == experiments.WhatsUp {
				_, best = s.BestF1()
			}
		}
	}
	b.ReportMetric(best, "whatsup-best-F1")
}

func BenchmarkFig3Synthetic(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3("synthetic", benchOptions())
		for _, s := range r.Series {
			if s.Alg == experiments.WhatsUp {
				_, best = s.BestF1()
			}
		}
	}
	b.ReportMetric(best, "whatsup-best-F1")
}

func BenchmarkFig3Digg(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3("digg", benchOptions())
		for _, s := range r.Series {
			if s.Alg == experiments.WhatsUp {
				_, best = s.BestF1()
			}
		}
	}
	b.ReportMetric(best, "whatsup-best-F1")
}

func BenchmarkFig4LSCC(b *testing.B) {
	var lsccAtMax float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(benchOptions())
		pts := r.Series[0].Points
		lsccAtMax = pts[len(pts)-1].LSCC
	}
	b.ReportMetric(lsccAtMax, "lscc-at-max-fanout")
}

func BenchmarkFig5TTL(b *testing.B) {
	var ttl0, ttl4 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(benchOptions())
		ttl0 = r.Points[0].Recall
		ttl4 = r.Points[3].Recall
	}
	b.ReportMetric(ttl0, "recall-ttl0")
	b.ReportMetric(ttl4, "recall-ttl4")
}

func BenchmarkFig6Hops(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = experiments.Fig6(benchOptions()).MeanInfectionHops
	}
	b.ReportMetric(mean, "mean-infection-hops")
}

func BenchmarkFig7Dynamics(b *testing.B) {
	var wupConv float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(benchOptions(), experiments.Fig7Config{
			Trials: 1, EventCycle: 15, TotalCycles: 40, Window: 10,
		})
		wupConv = float64(r.WhatsUp.JoinConvergence)
	}
	b.ReportMetric(wupConv, "join-convergence-cycles")
}

func BenchmarkFig8Deployment(b *testing.B) {
	var f1 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchOptions(), experiments.Fig8Config{
			Fanouts: []int{3, 6}, Cycles: 20, SkipLive: true,
		})
		f1 = r.Points[1].Simulation
	}
	b.ReportMetric(f1, "F1-sim-f6")
}

func BenchmarkFig9Centralized(b *testing.B) {
	var central, decentral float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchOptions())
		central = r.Series[0].Best().F1
		decentral = r.Series[2].Best().F1
	}
	b.ReportMetric(central, "central-F1")
	b.ReportMetric(decentral, "whatsup-F1")
}

func BenchmarkFig10Popularity(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		adv = experiments.Fig10(benchOptions()).UnpopularAdvantage()
	}
	b.ReportMetric(adv, "unpopular-recall-advantage")
}

func BenchmarkFig11Sociability(b *testing.B) {
	var corr float64
	for i := 0; i < b.N; i++ {
		corr = experiments.Fig11(benchOptions()).Correlation
	}
	b.ReportMetric(corr, "sociability-F1-correlation")
}

func BenchmarkAblationWUPViewSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := experiments.AblationWUPViewSize(benchOptions()).Points; len(pts) != 3 {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkAblationProfileWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := experiments.AblationProfileWindow(benchOptions()).Points; len(pts) != 4 {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkAblationRPSViewSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts := experiments.AblationRPSViewSize(benchOptions()).Points; len(pts) != 5 {
			b.Fatal("ablation incomplete")
		}
	}
}
