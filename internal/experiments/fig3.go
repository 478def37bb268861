package experiments

import (
	"fmt"
	"strings"
)

// Fig3Point is one sweep point of Figure 3: quality and cost at one fanout.
type Fig3Point struct {
	Fanout           int
	Precision        float64
	Recall           float64
	F1               float64
	MsgsPerCycleNode float64 // x-axis of Figures 3d-3f
	MsgsPerUser      float64 // Table III "Mess./User"
}

// Fig3Series is one algorithm's curve on one dataset.
type Fig3Series struct {
	Alg    Algorithm
	Points []Fig3Point
}

// Fig3Result reproduces Figures 3a-3f: F1-Score against fanout and against
// message cost for the four algorithms on one dataset.
type Fig3Result struct {
	Dataset string
	Users   int
	Series  []Fig3Series
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
	o = o.WithDefaults()
	ds := must(DatasetByName(datasetName, o))
	fanouts := fig3Fanouts(datasetName)

	type cell struct {
		alg Algorithm
		pt  Fig3Point
	}
	var jobs []func() cell
	for _, alg := range Fig3Algorithms {
		for _, f := range fanouts {
			alg, f := alg, f
			jobs = append(jobs, func() cell {
				out := Run(RunConfig{Dataset: ds, Alg: alg, Fanout: f, Seed: o.Seed, EngineOptions: o.EngineOptions})
				col := out.Col
				return cell{alg, Fig3Point{
					Fanout:           f,
					Precision:        col.Precision(),
					Recall:           col.Recall(),
					F1:               col.F1(),
					MsgsPerCycleNode: float64(col.TotalMessages()) / float64(out.Cycles) / float64(ds.Users),
					MsgsPerUser:      float64(col.TotalMessages()) / float64(ds.Users),
				}}
			})
		}
	}
	cells := parallel(o.Workers, jobs)

	res := Fig3Result{Dataset: datasetName, Users: ds.Users, Series: make([]Fig3Series, len(Fig3Algorithms))}
	byAlg := make(map[Algorithm]*Fig3Series)
	for i, alg := range Fig3Algorithms {
		res.Series[i] = Fig3Series{Alg: alg}
		byAlg[alg] = &res.Series[i]
	}
	for _, c := range cells {
		s := byAlg[c.alg]
		s.Points = append(s.Points, c.pt)
	}
	return res
}

// String renders the curves as the rows the paper plots.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (%s, %d users): F1 vs fanout and vs messages/cycle/node\n", r.Dataset, r.Users)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-12s", s.Alg)
		for _, p := range s.Points {
			fmt.Fprintf(&b, " f=%-2d F1=%.2f m=%.1f |", p.Fanout, p.F1, p.MsgsPerCycleNode)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// BestF1 returns the best F1 across a series' points, with its fanout.
func (s Fig3Series) BestF1() (fanout int, f1 float64) {
	for _, p := range s.Points {
		if p.F1 > f1 {
			f1, fanout = p.F1, p.Fanout
		}
	}
	return fanout, f1
}
