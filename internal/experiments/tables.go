package experiments

import (
	"fmt"
	"strings"

	"whatsup/internal/baselines"
	"whatsup/internal/metrics"
)

// Table1Result reproduces Table I: the workload summary.
type Table1Result struct {
	Rows []struct {
		Name  string
		Users int
		News  int
	}
}

// Table1 builds all three workloads and summarizes them.
func Table1(o Options) Table1Result {
	o = o.WithDefaults()
	var r Table1Result
	for _, name := range []string{"synthetic", "digg", "survey"} {
		ds := must(DatasetByName(name, o))
		r.Rows = append(r.Rows, struct {
			Name  string
			Users int
			News  int
		}{ds.Name, ds.Users, len(ds.Items)})
	}
	return r
}

// String renders the Table I rows.
func (r Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table I: workload summary\n  name       users  news\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-6d %d\n", row.Name, row.Users, row.News)
	}
	return b.String()
}

// Table3Row is one "best configuration" row of Table III.
type Table3Row struct {
	Algorithm   string
	Param       string // the tuned parameter, e.g. "fLIKE=10" or "k=19"
	Precision   float64
	Recall      float64
	F1          float64
	MsgsPerUser float64
}

// Table3Result reproduces Table III: the best performance of each approach
// on the survey dataset. WhatsUp should match WhatsUp-Cos's F1 at roughly
// half the message cost, beat both CF variants, and plain gossip should
// show near-perfect recall with the worst precision and the most messages.
type Table3Result struct {
	Dataset string
	Rows    []Table3Row
}

// Table3 runs the five best configurations of the paper.
func Table3(o Options) Table3Result {
	o = o.WithDefaults()
	ds := must(DatasetByName("survey", o))

	type spec struct {
		alg    Algorithm
		fanout int
		param  string
	}
	specs := []spec{
		{PlainGossip, 4, "f=4"},
		{CFCos, 29, "k=29"},
		{CFWup, 19, "k=19"},
		{WhatsUpCos, 24, "fLIKE=24"},
		{WhatsUp, 10, "fLIKE=10"},
	}
	jobs := make([]func() Table3Row, len(specs))
	for i, sp := range specs {
		sp := sp
		jobs[i] = func() Table3Row {
			out := Run(RunConfig{Dataset: ds, Alg: sp.alg, Fanout: sp.fanout, Seed: o.Seed, EngineOptions: o.EngineOptions})
			col := out.Col
			return Table3Row{
				Algorithm:   string(sp.alg),
				Param:       sp.param,
				Precision:   col.Precision(),
				Recall:      col.Recall(),
				F1:          col.F1(),
				MsgsPerUser: float64(col.TotalMessages()) / float64(ds.Users),
			}
		}
	}
	return Table3Result{Dataset: "survey", Rows: parallel(o.Workers, jobs)}
}

// Row returns the row for an algorithm name (nil if absent).
func (r Table3Result) Row(alg string) *Table3Row {
	for i := range r.Rows {
		if r.Rows[i].Algorithm == alg {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders the Table III rows.
func (r Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III (%s): best performance of each approach\n", r.Dataset)
	b.WriteString("  algorithm    param     precision recall  f1     mess./user\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %-9s %-9.2f %-7.2f %-6.2f %.1fk\n",
			row.Algorithm, row.Param, row.Precision, row.Recall, row.F1, row.MsgsPerUser/1000)
	}
	return b.String()
}

// Table4Result reproduces Table IV: among deliveries the receiver liked, the
// fraction forwarded 0..4 times by dislikers. A meaningful share above zero
// demonstrates the value of the dislike path.
type Table4Result struct {
	Dataset   string
	Fanout    int
	Fractions []float64 // index = number of dislike forwards, last bucket cumulative
}

// Table4 runs WhatsUp at fLIKE=10 and extracts the dislike histogram.
func Table4(o Options) Table4Result {
	o = o.WithDefaults()
	ds := must(DatasetByName("survey", o))
	out := Run(RunConfig{Dataset: ds, Alg: WhatsUp, Fanout: 10, Seed: o.Seed, EngineOptions: o.EngineOptions})
	return Table4Result{
		Dataset:   "survey",
		Fanout:    10,
		Fractions: out.Col.DislikeFractions(4),
	}
}

// ViaDislikeShare is the fraction of liked deliveries that needed at least
// one dislike forward (paper: 46%).
func (r Table4Result) ViaDislikeShare() float64 {
	var s float64
	for d := 1; d < len(r.Fractions); d++ {
		s += r.Fractions[d]
	}
	return s
}

// String renders the Table IV row.
func (r Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV (%s, fLIKE=%d): news received and liked via dislike\n", r.Dataset, r.Fanout)
	b.WriteString("  number of dislikes:")
	for d := range r.Fractions {
		fmt.Fprintf(&b, " %d", d)
	}
	b.WriteString("\n  fraction of news:  ")
	for _, f := range r.Fractions {
		fmt.Fprintf(&b, " %.0f%%", f*100)
	}
	fmt.Fprintf(&b, "\n  share delivered via dislike: %.0f%%\n", r.ViaDislikeShare()*100)
	return b.String()
}

// Table5Row is one system's row in Table V.
type Table5Row struct {
	Dataset   string
	Approach  string
	Precision float64
	Recall    float64
	F1        float64
	Messages  int64
}

// Table5Result reproduces Table V: WhatsUp against explicit filtering —
// cascading on Digg and the ideal C-Pub/Sub on the survey. Cascading should
// match WhatsUp's precision but with several-fold lower recall; C-Pub/Sub
// has recall 1 and minimal messages but lower precision.
type Table5Result struct {
	Rows []Table5Row
}

// Table5 runs the four cells of Table V.
func Table5(o Options) Table5Result {
	o = o.WithDefaults()
	digg := must(DatasetByName("digg", o))
	survey := must(DatasetByName("survey", o))

	jobs := []func() Table5Row{
		func() Table5Row {
			col := metrics.NewCollector()
			baselines.RunCascade(digg, col)
			return Table5Row{"digg", "Cascade", col.Precision(), col.Recall(), col.F1(), col.TotalMessages()}
		},
		func() Table5Row {
			out := Run(RunConfig{Dataset: digg, Alg: WhatsUp, Fanout: 10, Seed: o.Seed, EngineOptions: o.EngineOptions})
			return Table5Row{"digg", "WhatsUp", out.Col.Precision(), out.Col.Recall(), out.Col.F1(), out.Col.TotalMessages()}
		},
		func() Table5Row {
			col := metrics.NewCollector()
			baselines.RunPubSub(survey, col)
			return Table5Row{"survey", "C-Pub/Sub", col.Precision(), col.Recall(), col.F1(), col.TotalMessages()}
		},
		func() Table5Row {
			out := Run(RunConfig{Dataset: survey, Alg: WhatsUp, Fanout: 10, Seed: o.Seed, EngineOptions: o.EngineOptions})
			return Table5Row{"survey", "WhatsUp", out.Col.Precision(), out.Col.Recall(), out.Col.F1(), out.Col.TotalMessages()}
		},
	}
	return Table5Result{Rows: parallel(o.Workers, jobs)}
}

// Row returns the row for (dataset, approach), or nil.
func (r Table5Result) Row(dataset, approach string) *Table5Row {
	for i := range r.Rows {
		if r.Rows[i].Dataset == dataset && r.Rows[i].Approach == approach {
			return &r.Rows[i]
		}
	}
	return nil
}

// String renders the Table V rows.
func (r Table5Result) String() string {
	var b strings.Builder
	b.WriteString("Table V: WhatsUp vs C-Pub/Sub and Cascading\n")
	b.WriteString("  dataset  approach    precision recall  f1     messages\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8s %-11s %-9.2f %-7.2f %-6.2f %dk\n",
			row.Dataset, row.Approach, row.Precision, row.Recall, row.F1, row.Messages/1000)
	}
	return b.String()
}

// Table6Cell is the outcome at one (loss, fanout) pair.
type Table6Cell struct {
	LossRate  float64
	Fanout    int
	Recall    float64
	Precision float64
	F1        float64
}

// Table6Result reproduces Table VI: performance against message loss on the
// survey workload. With fanout 6, F1 should be essentially unchanged up to
// 20% loss; with fanout 3 the smaller redundancy shows.
type Table6Result struct {
	Dataset string
	Cells   []Table6Cell
}

// Table6LossRates and Table6Fanouts are the paper's grid.
var (
	Table6LossRates = []float64{0, 0.05, 0.20, 0.50}
	Table6Fanouts   = []int{3, 6}
)

// Table6 runs the loss sweep. Loss affects BEEP and gossip messages alike,
// as in the ModelNet experiment of Section V-E.
func Table6(o Options) Table6Result {
	o = o.WithDefaults()
	ds := must(DatasetByName("survey", o))
	var jobs []func() Table6Cell
	for _, loss := range Table6LossRates {
		for _, f := range Table6Fanouts {
			loss, f := loss, f
			jobs = append(jobs, func() Table6Cell {
				out := Run(RunConfig{Dataset: ds, Alg: WhatsUp, Fanout: f, Seed: o.Seed, Loss: loss, EngineOptions: o.EngineOptions})
				return Table6Cell{
					LossRate:  loss,
					Fanout:    f,
					Recall:    out.Col.Recall(),
					Precision: out.Col.Precision(),
					F1:        out.Col.F1(),
				}
			})
		}
	}
	return Table6Result{Dataset: "survey", Cells: parallel(o.Workers, jobs)}
}

// Cell returns the cell at (loss, fanout), or nil.
func (r Table6Result) Cell(loss float64, fanout int) *Table6Cell {
	for i := range r.Cells {
		if r.Cells[i].LossRate == loss && r.Cells[i].Fanout == fanout {
			return &r.Cells[i]
		}
	}
	return nil
}

// String renders the Table VI grid.
func (r Table6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI (%s): performance vs message-loss rate\n", r.Dataset)
	b.WriteString("  loss   fanout recall  precision f1\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-6.0f%% %-6d %-7.2f %-9.2f %.2f\n", c.LossRate*100, c.Fanout, c.Recall, c.Precision, c.F1)
	}
	return b.String()
}
