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

// Fig4Result reproduces Figure 4: the size of the largest strongly connected
// component of the implicit social network against fanout, for the four
// algorithms on the survey dataset, plus the clustering-coefficient and
// fragmentation statistics of Section V-A.
type Fig4Result struct {
	Series []Series[Fig4Point]
}

// Fig4Fanouts is the paper's Figure 4 grid.
var Fig4Fanouts = []int{2, 3, 4, 6, 8, 10, 12}

// Fig4 runs the connectivity sweep on the survey dataset.
func Fig4(o Options) Fig4Result {
	o, ds := o.workload("survey")
	pts := sweep(o, fanoutGrid(ds, Fig3Algorithms, Fig4Fanouts), func(c cell, out Outcome) Fig4Point {
		g := out.Engine.WUPGraph()
		return Fig4Point{
			Fanout:                c.Fanout,
			LSCC:                  g.LargestSCCFraction(),
			WeakComponents:        g.WeakComponents(),
			ClusteringCoefficient: g.ClusteringCoefficient(),
		}
	})
	return Fig4Result{Series: bySeries(Fig3Algorithms, pts)}
}

// String renders the LSCC curves plus the Section V-A statistics.
func (r Fig4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4 (survey): fraction of nodes in the largest SCC vs fanout\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-12s", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, " f=%-2d lscc=%.2f cc=%.2f comps=%-3d |", p.Fanout, p.LSCC, p.ClusteringCoefficient, p.WeakComponents)
		}
		b.WriteString("\n")
	}
	return b.String()
}
