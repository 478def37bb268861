package experiments

import (
	"fmt"
	"math"
	"strings"

	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/profile"
)

// Fig11Result reproduces Figure 11: node-level F1 against sociability (the
// node's average similarity to its 15 most similar peers, computed from the
// full trace) plus the sociability distribution. The more sociable a node,
// the better the system serves it — the incentive property of Section V-H.
type Fig11Result struct {
	Buckets []metrics.Bucket
	// Correlation is the Pearson correlation between sociability and F1
	// across nodes, summarizing the positive trend.
	Correlation float64
}

// Fig11 runs the sociability analysis (fLIKE = 10, k = 15 neighbours).
func Fig11(o Options) Fig11Result {
	o, ds := o.workload("survey")
	const buckets = 10

	out := o.run(at(ds, WhatsUp, 10))
	soc := metrics.Sociability(ds.FullProfiles(), profile.WUP{}, 15)
	socMap := make(map[news.NodeID]float64, len(soc))
	xs := make([]float64, 0, len(soc))
	ys := make([]float64, 0, len(soc))
	for u, s := range soc {
		id := news.NodeID(u)
		socMap[id] = s
		if ns := out.Col.Node(id); ns != nil {
			xs = append(xs, s)
			ys = append(ys, ns.F1())
		}
	}
	return Fig11Result{
		Buckets:     out.Col.F1BySociability(socMap, buckets),
		Correlation: pearson(xs, ys),
	}
}

// pearson computes the Pearson correlation coefficient of two samples.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// String renders the bucketed curve and distribution.
func (r Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 (survey): F1 vs sociability (correlation %.2f)\n", r.Correlation)
	b.WriteString("  sociability  F1  fraction-of-nodes\n")
	for _, bk := range r.Buckets {
		if bk.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-12.2f %-4.2f %.3f\n", bk.X, bk.Y, bk.Fraction)
	}
	return b.String()
}
