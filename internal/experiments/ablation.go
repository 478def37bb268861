package experiments

import (
	"fmt"
	"strings"
)

// AblationResult is one parameter's ablation sweep.
type AblationResult struct {
	Name   string
	Points []Point
}

// ablations are the three parameter choices of Section IV-D, each swept
// around the paper's value on the survey workload at fLIKE = 10.
var ablations = []struct {
	name, label string
	values      func(cycles int) []int
	set         func(rc *RunConfig, v int)
}{
	// WUPvs ∈ {1,2,3}·fLIKE: the paper's 2·fLIKE is the precision/recall
	// sweet spot.
	{"WUP view size", "WUPvs=%d·fLIKE",
		func(int) []int { return []int{1, 2, 3} },
		func(rc *RunConfig, v int) { rc.Node.WUPViewSize = v * rc.Fanout }},
	// The profile window between 1/10 and 1/1 of the run: the sweet spot is
	// 1/5 to 2/5.
	{"profile window", "window=%dcyc",
		func(cycles int) []int { return []int{cycles / 10, cycles / 5, 2 * cycles / 5, cycles} },
		func(rc *RunConfig, v int) { rc.Node.ProfileWindow = int64(v) }},
	// RPSvs ∈ {10..60}: the paper reports good behaviour between 20 and 40.
	{"RPS view size", "RPSvs=%d",
		func(int) []int { return []int{10, 20, 30, 40, 60} },
		func(rc *RunConfig, v int) { rc.Node.RPSViewSize = v }},
}

// Ablations runs the three sweeps as one grid and returns them in the
// table's order.
func Ablations(o Options) []AblationResult {
	o, ds := o.workload("survey")
	var grid []cell
	for _, a := range ablations {
		for _, v := range a.values(ds.Cycles) {
			c := at(ds, WhatsUp, 10)
			c.Label = fmt.Sprintf(a.label, v)
			a.set(&c.RunConfig, v)
			grid = append(grid, c)
		}
	}
	pts := sweep(o, grid, quality)
	out := make([]AblationResult, len(ablations))
	for i, a := range ablations {
		n := len(a.values(ds.Cycles))
		out[i], pts = AblationResult{Name: a.name, Points: pts[:n]}, pts[n:]
	}
	return out
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
