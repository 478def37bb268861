package experiments

import (
	"fmt"
	"strings"
)

// Fig5Result reproduces Figure 5: the impact of the dislike TTL on
// precision, recall and F1 (survey dataset, fLIKE = 10). Low TTLs should
// mostly depress recall; TTLs beyond 4 should bring no further improvement.
type Fig5Result struct {
	Points []Point
}

// Fig5TTLs is the paper's sweep grid (0 through 8).
var Fig5TTLs = []int{0, 1, 2, 4, 6, 8}

// Fig5 runs the TTL sweep.
func Fig5(o Options) Fig5Result {
	o, ds := o.workload("survey")
	grid := make([]cell, len(Fig5TTLs))
	for i, ttl := range Fig5TTLs {
		// The row is named by the paper's TTL; RunConfig spells an explicit
		// zero as -1.
		grid[i] = at(ds, WhatsUp, 10)
		grid[i].Label = fmt.Sprint(ttl)
		grid[i].TTL = ttl
		if ttl == 0 {
			grid[i].TTL = -1
		}
	}
	return Fig5Result{Points: sweep(o, grid, quality)}
}

// String renders the three curves.
func (r Fig5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5 (survey, fLIKE=10): impact of the dislike TTL\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  ttl=%s precision=%.3f recall=%.3f f1=%.3f\n", p.Label, p.Precision, p.Recall, p.F1)
	}
	return b.String()
}
