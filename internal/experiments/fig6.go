package experiments

import (
	"fmt"
	"strings"
)

// Fig6Result reproduces Figure 6: how many nodes forward or become infected
// at each hop distance from the source, split by like/dislike (survey
// dataset, fLIKE = 5). The curve should be bell-shaped with most of the
// dissemination work within a few hops of the source.
type Fig6Result struct {
	// Histograms indexed by hop distance, normalised per item (averages).
	ForwardByLike      map[int]float64
	ForwardByDislike   map[int]float64
	InfectionByLike    map[int]float64
	InfectionByDislike map[int]float64
	Items              int
	// MeanInfectionHops is the average hop distance of deliveries ("an
	// average around 5" in Section V-B).
	MeanInfectionHops float64
}

// Fig6 runs the hop-distance analysis.
func Fig6(o Options) Fig6Result {
	o, ds := o.workload("survey")
	out := o.run(at(ds, WhatsUp, 5))
	col := out.Col

	items := len(ds.Items)
	norm := func(h map[int]int) map[int]float64 {
		m := make(map[int]float64, len(h))
		for k, v := range h {
			m[k] = float64(v) / float64(items)
		}
		return m
	}
	var hopSum, hopN float64
	for _, hist := range []map[int]int{col.InfectionByLike, col.InfectionByDislike} {
		for h, n := range hist {
			hopSum += float64(h * n)
			hopN += float64(n)
		}
	}
	mean := 0.0
	if hopN > 0 {
		mean = hopSum / hopN
	}
	return Fig6Result{
		ForwardByLike:      norm(col.ForwardByLike),
		ForwardByDislike:   norm(col.ForwardByDislike),
		InfectionByLike:    norm(col.InfectionByLike),
		InfectionByDislike: norm(col.InfectionByDislike),
		Items:              items,
		MeanInfectionHops:  mean,
	}
}

// MaxHop returns the largest hop distance observed across all histograms.
func (r Fig6Result) MaxHop() int {
	maxHop := 0
	for _, m := range []map[int]float64{r.ForwardByLike, r.ForwardByDislike, r.InfectionByLike, r.InfectionByDislike} {
		for h := range m {
			if h > maxHop {
				maxHop = h
			}
		}
	}
	return maxHop
}

// String renders the four curves, one row per hop.
func (r Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 (survey, fLIKE=5): per-item nodes vs hops (mean infection hop %.1f)\n", r.MeanInfectionHops)
	b.WriteString("  hop  fwd-like  infect-like  fwd-dislike  infect-dislike\n")
	for h, last := 0, r.MaxHop(); h <= last; h++ {
		fmt.Fprintf(&b, "  %-4d %-9.2f %-12.2f %-12.2f %-14.2f\n",
			h, r.ForwardByLike[h], r.InfectionByLike[h], r.ForwardByDislike[h], r.InfectionByDislike[h])
	}
	return b.String()
}
