package experiments

import (
	"fmt"
	"strings"

	"whatsup/internal/baselines"
	"whatsup/internal/metrics"
)

// Fig9Point is one fanout point of the centralized comparison.
type Fig9Point struct {
	Fanout    int
	Precision float64
	Recall    float64
	F1        float64
}

// Fig9Series is one system's curve.
type Fig9Series struct {
	Name   string
	Points []Fig9Point
}

// Fig9Result reproduces Figure 9: C-WhatsUp (centralized, global knowledge)
// against WhatsUp and WhatsUp-Cos on the survey dataset. Decentralization
// should cost only a few F1 points (paper: ~5%), with the centralized
// variant showing better precision and slightly lower recall (Section V-G).
type Fig9Result struct {
	Dataset string
	Series  []Fig9Series
}

// Fig9Fanouts is the paper's Figure 9 grid.
var Fig9Fanouts = []int{2, 4, 6, 8, 10, 12, 14}

// Fig9 runs the centralized-vs-decentralized comparison.
func Fig9(o Options) Fig9Result {
	o = o.WithDefaults()
	ds := must(DatasetByName("survey", o))

	type cell struct {
		name string
		pt   Fig9Point
	}
	var jobs []func() cell
	for _, f := range Fig9Fanouts {
		f := f
		jobs = append(jobs, func() cell {
			col := metrics.NewCollector()
			baselines.RunCentral(ds, baselines.CentralConfig{FLike: f}, col)
			return cell{"Centralized", Fig9Point{f, col.Precision(), col.Recall(), col.F1()}}
		})
		for _, alg := range []Algorithm{WhatsUp, WhatsUpCos} {
			alg := alg
			jobs = append(jobs, func() cell {
				out := Run(RunConfig{Dataset: ds, Alg: alg, Fanout: f, Seed: o.Seed, EngineOptions: o.EngineOptions})
				return cell{string(alg), Fig9Point{f, out.Col.Precision(), out.Col.Recall(), out.Col.F1()}}
			})
		}
	}
	cells := parallel(o.Workers, jobs)

	order := []string{"Centralized", string(WhatsUpCos), string(WhatsUp)}
	res := Fig9Result{Dataset: "survey", Series: make([]Fig9Series, len(order))}
	byName := make(map[string]*Fig9Series)
	for i, n := range order {
		res.Series[i] = Fig9Series{Name: n}
		byName[n] = &res.Series[i]
	}
	for _, c := range cells {
		s := byName[c.name]
		s.Points = append(s.Points, c.pt)
	}
	return res
}

// Best returns a series' best F1 point.
func (s Fig9Series) Best() Fig9Point {
	var best Fig9Point
	for _, p := range s.Points {
		if p.F1 > best.F1 {
			best = p
		}
	}
	return best
}

// String renders the three curves.
func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 (%s): centralized vs decentralized\n", r.Dataset)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-12s", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, " f=%-2d F1=%.2f |", p.Fanout, p.F1)
		}
		best := s.Best()
		fmt.Fprintf(&b, "  best: f=%d P=%.2f R=%.2f F1=%.2f\n", best.Fanout, best.Precision, best.Recall, best.F1)
	}
	return b.String()
}
