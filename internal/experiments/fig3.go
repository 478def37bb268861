package experiments

import (
	"fmt"
	"strings"
)

// Fig3Result reproduces Figures 3a-3f: F1-Score against fanout and against
// message cost for the four algorithms on one dataset.
type Fig3Result struct {
	Dataset string
	Users   int
	Series  []Series[Point]
}

// fig3Fanouts mirrors the paper's per-dataset fanout grids.
func fig3Fanouts(dataset string) []int {
	switch dataset {
	case "synthetic":
		return []int{5, 10, 15, 20, 25, 30, 35, 40, 45}
	case "digg":
		return []int{5, 10, 15, 20, 25}
	default: // survey
		return []int{5, 10, 15, 20, 25, 30}
	}
}

// Fig3Algorithms is the fixed algorithm set of Figure 3.
var Fig3Algorithms = []Algorithm{CFWup, CFCos, WhatsUp, WhatsUpCos}

// Fig3 runs the Figure 3 sweep on one dataset ("synthetic", "digg",
// "survey").
func Fig3(datasetName string, o Options) Fig3Result {
	o, ds := o.workload(datasetName)
	grid := fanoutGrid(ds, Fig3Algorithms, fig3Fanouts(datasetName))
	return Fig3Result{Dataset: datasetName, Users: ds.Users, Series: bySeries(Fig3Algorithms, sweep(o, grid, quality))}
}

// String renders the curves as the rows the paper plots.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (%s, %d users): F1 vs fanout and vs messages/cycle/node\n", r.Dataset, r.Users)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-12s", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, " f=%-2d F1=%.2f m=%.1f |", p.Fanout, p.F1, p.MsgsPerCycleNode())
		}
		b.WriteString("\n")
	}
	return b.String()
}
