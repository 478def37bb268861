package experiments

import (
	"fmt"
	"strings"
)

// Fig5Point is one TTL sweep point.
type Fig5Point struct {
	TTL       int
	Precision float64
	Recall    float64
	F1        float64
}

// Fig5Result reproduces Figure 5: the impact of the dislike TTL on
// precision, recall and F1 (survey dataset, fLIKE = 10). Low TTLs should
// mostly depress recall; TTLs beyond 4 should bring no further improvement.
type Fig5Result struct {
	Dataset string
	Fanout  int
	Points  []Fig5Point
}

// Fig5TTLs is the paper's sweep grid (0 through 8).
var Fig5TTLs = []int{0, 1, 2, 4, 6, 8}

// Fig5 runs the TTL sweep.
func Fig5(o Options) Fig5Result {
	o = o.WithDefaults()
	ds := must(DatasetByName("survey", o))
	const fanout = 10

	jobs := make([]func() Fig5Point, 0, len(Fig5TTLs))
	for _, ttl := range Fig5TTLs {
		ttl := ttl
		jobs = append(jobs, func() Fig5Point {
			cfgTTL := ttl
			if cfgTTL == 0 {
				cfgTTL = -1 // explicit zero (RunConfig convention)
			}
			out := Run(RunConfig{Dataset: ds, Alg: WhatsUp, Fanout: fanout, Seed: o.Seed, TTL: cfgTTL, EngineOptions: o.EngineOptions})
			return Fig5Point{
				TTL:       ttl,
				Precision: out.Col.Precision(),
				Recall:    out.Col.Recall(),
				F1:        out.Col.F1(),
			}
		})
	}
	return Fig5Result{Dataset: "survey", Fanout: fanout, Points: parallel(o.Workers, jobs)}
}

// String renders the three curves.
func (r Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (%s, fLIKE=%d): impact of the dislike TTL\n", r.Dataset, r.Fanout)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  ttl=%d precision=%.3f recall=%.3f f1=%.3f\n", p.TTL, p.Precision, p.Recall, p.F1)
	}
	return b.String()
}
