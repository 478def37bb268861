package experiments

import (
	"fmt"
	"strings"

	"whatsup/internal/metrics"
)

// Fig10Result reproduces Figure 10: average recall against item popularity
// for WhatsUp and CF-WUP, together with the popularity distribution of the
// survey items. WhatsUp's gain should concentrate on unpopular items
// (popularity 0 to 0.5), courtesy of the dislike path.
type Fig10Result struct {
	WhatsUp []metrics.Bucket
	CFWup   []metrics.Bucket
}

// Fig10 runs the popularity analysis (fLIKE = 10, k = 19 as in Table III).
func Fig10(o Options) Fig10Result {
	o, ds := o.workload("survey")
	const buckets = 10

	recall := sweep(o, []cell{at(ds, WhatsUp, 10), at(ds, CFWup, 19)}, func(_ cell, out Outcome) []metrics.Bucket {
		return out.Col.RecallByPopularity(ds.Users, buckets)
	})
	return Fig10Result{WhatsUp: recall[0], CFWup: recall[1]}
}

// UnpopularAdvantage returns WhatsUp's average recall advantage over CF-WUP
// on items with popularity below 0.5 (the paper's headline for Figure 10).
func (r Fig10Result) UnpopularAdvantage() float64 {
	var sum float64
	n := 0
	for i := range r.WhatsUp {
		if r.WhatsUp[i].X >= 0.5 || r.WhatsUp[i].Count == 0 || r.CFWup[i].Count == 0 {
			continue
		}
		sum += r.WhatsUp[i].Y - r.CFWup[i].Y
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders recall per popularity bucket plus the distribution.
func (r Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 (survey): recall vs popularity (advantage on unpopular items: %+.3f)\n", r.UnpopularAdvantage())
	b.WriteString("  popularity  recall(WhatsUp)  recall(CF-Wup)  fraction-of-news\n")
	for i := range r.WhatsUp {
		w, c := r.WhatsUp[i], r.CFWup[i]
		if w.Count == 0 && c.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-11.2f %-16.2f %-15.2f %.3f\n", w.X, w.Y, c.Y, w.Fraction)
	}
	return b.String()
}
