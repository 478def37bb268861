package experiments

import (
	"fmt"
	"strings"
)

// AblationPoint is one configuration of an ablation sweep.
type AblationPoint struct {
	Label     string
	Precision float64
	Recall    float64
	F1        float64
	Messages  int64
}

// AblationResult is a generic ablation sweep outcome.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// String renders the sweep.
func (r AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation %s (survey, fLIKE=10)\n", r.Name)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-14s P=%.2f R=%.2f F1=%.2f msgs=%dk\n",
			p.Label, p.Precision, p.Recall, p.F1, p.Messages/1000)
	}
	return b.String()
}

// AblationWUPViewSize sweeps WUPvs ∈ {1,2,3}·fLIKE, validating the paper's
// choice of WUPvs = 2·fLIKE as the precision/recall sweet spot
// (Section IV-D).
func AblationWUPViewSize(o Options) AblationResult {
	o = o.WithDefaults()
	ds := must(DatasetByName("survey", o))
	factors := []int{1, 2, 3}
	jobs := make([]func() AblationPoint, len(factors))
	for i, factor := range factors {
		factor := factor
		jobs[i] = func() AblationPoint {
			out := Run(RunConfig{Dataset: ds, Alg: WhatsUp, Fanout: 10, Seed: o.Seed, WUPViewFactor: factor, EngineOptions: o.EngineOptions})
			return AblationPoint{
				Label:     fmt.Sprintf("WUPvs=%d·fLIKE", factor),
				Precision: out.Col.Precision(),
				Recall:    out.Col.Recall(),
				F1:        out.Col.F1(),
				Messages:  out.Col.TotalMessages(),
			}
		}
	}
	return AblationResult{Name: "WUP view size", Points: parallel(o.Workers, jobs)}
}

// AblationProfileWindow sweeps the profile window between 1/10 and 1/1 of
// the run, validating the 1/5-to-2/5 sweet spot of Section IV-D.
func AblationProfileWindow(o Options) AblationResult {
	o = o.WithDefaults()
	ds := must(DatasetByName("survey", o))
	windows := []int64{
		int64(ds.Cycles / 10),
		int64(ds.Cycles / 5),
		int64(2 * ds.Cycles / 5),
		int64(ds.Cycles),
	}
	jobs := make([]func() AblationPoint, len(windows))
	for i, w := range windows {
		w := w
		jobs[i] = func() AblationPoint {
			out := Run(RunConfig{Dataset: ds, Alg: WhatsUp, Fanout: 10, Seed: o.Seed, Window: w, EngineOptions: o.EngineOptions})
			return AblationPoint{
				Label:     fmt.Sprintf("window=%dcyc", w),
				Precision: out.Col.Precision(),
				Recall:    out.Col.Recall(),
				F1:        out.Col.F1(),
				Messages:  out.Col.TotalMessages(),
			}
		}
	}
	return AblationResult{Name: "profile window", Points: parallel(o.Workers, jobs)}
}

// AblationRPSViewSize sweeps RPSvs ∈ {10..60}; the paper reports good
// behaviour between 20 and 40 (Section IV-D).
func AblationRPSViewSize(o Options) AblationResult {
	o = o.WithDefaults()
	ds := must(DatasetByName("survey", o))
	sizes := []int{10, 20, 30, 40, 60}
	jobs := make([]func() AblationPoint, len(sizes))
	for i, s := range sizes {
		s := s
		jobs[i] = func() AblationPoint {
			out := Run(RunConfig{Dataset: ds, Alg: WhatsUp, Fanout: 10, Seed: o.Seed, RPSViewSize: s, EngineOptions: o.EngineOptions})
			return AblationPoint{
				Label:     fmt.Sprintf("RPSvs=%d", s),
				Precision: out.Col.Precision(),
				Recall:    out.Col.Recall(),
				F1:        out.Col.F1(),
				Messages:  out.Col.TotalMessages(),
			}
		}
	}
	return AblationResult{Name: "RPS view size", Points: parallel(o.Workers, jobs)}
}
