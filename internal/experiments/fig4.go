package experiments

import (
	"fmt"
	"strings"
)

// Fig4Point is one sweep point of Figure 4: overlay connectivity at one
// fanout.
type Fig4Point struct {
	Fanout int
	// LSCC is the fraction of nodes in the largest strongly connected
	// component of the WUP-view graph at the end of the run.
	LSCC float64
	// WeakComponents is the number of weakly connected components, the
	// fragmentation figure quoted in Section V-A.
	WeakComponents int
	// ClusteringCoefficient of the overlay (≈0.15 for the WUP metric vs
	// ≈0.40 for cosine in the paper).
	ClusteringCoefficient float64
}

// Fig4Series is one algorithm's connectivity curve.
type Fig4Series struct {
	Alg    Algorithm
	Points []Fig4Point
}

// Fig4Result reproduces Figure 4: the size of the largest strongly connected
// component of the implicit social network against fanout, for the four
// algorithms on the survey dataset, plus the clustering-coefficient and
// fragmentation statistics of Section V-A.
type Fig4Result struct {
	Dataset string
	Series  []Fig4Series
}

// Fig4Fanouts is the paper's Figure 4 grid.
var Fig4Fanouts = []int{2, 3, 4, 6, 8, 10, 12}

// Fig4 runs the connectivity sweep on the survey dataset.
func Fig4(o Options) Fig4Result {
	o = o.WithDefaults()
	ds := must(DatasetByName("survey", o))

	type cell struct {
		alg Algorithm
		pt  Fig4Point
	}
	var jobs []func() cell
	for _, alg := range Fig3Algorithms {
		for _, f := range Fig4Fanouts {
			alg, f := alg, f
			jobs = append(jobs, func() cell {
				out := Run(RunConfig{Dataset: ds, Alg: alg, Fanout: f, Seed: o.Seed, EngineOptions: o.EngineOptions})
				g := out.Engine.WUPGraph()
				return cell{alg, Fig4Point{
					Fanout:                f,
					LSCC:                  g.LargestSCCFraction(),
					WeakComponents:        g.WeakComponents(),
					ClusteringCoefficient: g.ClusteringCoefficient(),
				}}
			})
		}
	}
	cells := parallel(o.Workers, jobs)

	res := Fig4Result{Dataset: "survey", Series: make([]Fig4Series, len(Fig3Algorithms))}
	byAlg := make(map[Algorithm]*Fig4Series)
	for i, alg := range Fig3Algorithms {
		res.Series[i] = Fig4Series{Alg: alg}
		byAlg[alg] = &res.Series[i]
	}
	for _, c := range cells {
		s := byAlg[c.alg]
		s.Points = append(s.Points, c.pt)
	}
	return res
}

// String renders the LSCC curves plus the Section V-A statistics.
func (r Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 (%s): fraction of nodes in the largest SCC vs fanout\n", r.Dataset)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-12s", s.Alg)
		for _, p := range s.Points {
			fmt.Fprintf(&b, " f=%-2d lscc=%.2f cc=%.2f comps=%-3d |", p.Fanout, p.LSCC, p.ClusteringCoefficient, p.WeakComponents)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ConnectivityFanout returns the smallest fanout at which the LSCC covers at
// least the given fraction of nodes (0 when never reached) — the paper's
// "WUP reaches a strongly connected topology around fanout 10, cosine above
// 15" comparison.
func (s Fig4Series) ConnectivityFanout(threshold float64) int {
	for _, p := range s.Points {
		if p.LSCC >= threshold {
			return p.Fanout
		}
	}
	return 0
}
