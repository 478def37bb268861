package experiments

import (
	"fmt"
	"strings"

	"whatsup/internal/baselines"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
)

// Fig9Result reproduces Figure 9: C-WhatsUp (centralized, global knowledge)
// against WhatsUp and WhatsUp-Cos on the survey dataset. Decentralization
// should cost only a few F1 points (paper: ~5%), with the centralized
// variant showing better precision and slightly lower recall (Section V-G).
type Fig9Result struct {
	Series []Series[Point]
}

// Fig9Fanouts is the paper's Figure 9 grid.
var Fig9Fanouts = []int{2, 4, 6, 8, 10, 12, 14}

// Fig9 runs the centralized-vs-decentralized comparison.
func Fig9(o Options) Fig9Result {
	o, ds := o.workload("survey")
	grid := make([]cell, len(Fig9Fanouts))
	for i, f := range Fig9Fanouts {
		grid[i] = cell{RunConfig: RunConfig{Dataset: ds, Fanout: f}, Label: "Centralized",
			Baseline: func(ds *dataset.Dataset, col *metrics.Collector) {
				baselines.RunCentral(ds, f, col)
			}}
	}
	grid = append(grid, fanoutGrid(ds, []Algorithm{WhatsUpCos, WhatsUp}, Fig9Fanouts)...)
	names := []string{"Centralized", string(WhatsUpCos), string(WhatsUp)}
	return Fig9Result{Series: bySeries(names, sweep(o, grid, quality))}
}

// String renders the three curves.
func (r Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9 (survey): centralized vs decentralized\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-12s", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, " f=%-2d F1=%.2f |", p.Fanout, p.F1)
		}
		best := Best(s.Points)
		fmt.Fprintf(&b, "  best: f=%d P=%.2f R=%.2f F1=%.2f\n", best.Fanout, best.Precision, best.Recall, best.F1)
	}
	return b.String()
}
