// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section V) at a reduced scale, one bench per exhibit. Each bench reports
// the exhibit's headline numbers as custom metrics, so `go test -bench=.`
// doubles as a smoke reproduction; cmd/whatsup-bench runs the same drivers
// at larger scales with full output. Figures 7 and 8 run reduced shapes that
// only the experiments package can pass, so their benches live there, as
// does the allocation-gated hot-path family BenchmarkHotPath.
package whatsup_test

import (
	"fmt"
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/experiments"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// benchOptions keeps bench runs fast and deterministic.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 1, Scale: 0.1, Workers: 2}
}

// BenchmarkEngineScaling measures the parallel engine itself: one fixed
// 1 000-peer, 2-community run at 1, 2, 4 and 8 workers. Results are
// bit-identical across the sub-benchmarks (the engine's determinism
// contract); only wall-clock changes. Speedup requires GOMAXPROCS > 1 — on a
// single-core host all worker counts degenerate to serial execution.
func BenchmarkEngineScaling(b *testing.B) {
	const peers, itemsPerCycle, cycles = 1000, 6, 10
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := sim.Communities(peers, 2, itemsPerCycle, cycles, "item")
				nodeCfg := core.Config{FLike: 6, RPSViewSize: 12, ProfileWindow: cycles}
				w.NewPeer = func(id news.NodeID) sim.Peer {
					return core.NewNode(id, "", nodeCfg, w.Opinions, rand.New(rand.NewSource(1+int64(id))))
				}
				e, col := w.NewEngine(sim.Config{Seed: 1, Cycles: cycles, LossRate: 0.05, Workers: workers})
				b.StartTimer()
				e.Run()
				f1 = col.F1()
			}
			b.ReportMetric(f1, "F1")
		})
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
			if s.Name == string(experiments.WhatsUp) {
				best = experiments.Best(s.Points).F1
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
			if s.Name == string(experiments.WhatsUp) {
				best = experiments.Best(s.Points).F1
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
			if s.Name == string(experiments.WhatsUp) {
				best = experiments.Best(s.Points).F1
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

func BenchmarkFig9Centralized(b *testing.B) {
	var central, decentral float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchOptions())
		central = experiments.Best(r.Series[0].Points).F1
		decentral = experiments.Best(r.Series[2].Points).F1
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

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.Ablations(benchOptions())
		for j, want := range []int{3, 4, 5} { // WUP view size, profile window, RPS view size
			if len(rs[j].Points) != want {
				b.Fatal("ablation incomplete")
			}
		}
	}
}
