package experiments

import (
	"fmt"
	"strings"

	"whatsup/internal/baselines"
)

// Table1Row sizes one workload.
type Table1Row struct {
	Name  string
	Users int
	News  int
}

// Table1Result reproduces Table I: the workload summary.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 builds all three workloads and summarizes them.
func Table1(o Options) Table1Result {
	o = o.WithDefaults()
	var r Table1Result
	for _, name := range []string{"synthetic", "digg", "survey"} {
		ds := must(DatasetByName(name, o))
		r.Rows = append(r.Rows, Table1Row{ds.Name, ds.Users, len(ds.Items)})
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

// Table3Result reproduces Table III: the best performance of each approach
// on the survey dataset. WhatsUp should match WhatsUp-Cos's F1 at roughly
// half the message cost, beat both CF variants, and plain gossip should
// show near-perfect recall with the worst precision and the most messages.
type Table3Result struct {
	Rows []Point
}

// Table3 runs the five best configurations of the paper.
func Table3(o Options) Table3Result {
	o, ds := o.workload("survey")
	grid := []cell{at(ds, PlainGossip, 4), at(ds, CFCos, 29), at(ds, CFWup, 19), at(ds, WhatsUpCos, 24), at(ds, WhatsUp, 10)}
	return Table3Result{Rows: sweep(o, grid, quality)}
}

// String renders the Table III rows; the param column is the tuned fanout
// under the name the paper gives it for that algorithm.
func (r Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table III (survey): best performance of each approach\n")
	b.WriteString("  algorithm    param     precision recall  f1     mess./user\n")
	for _, row := range r.Rows {
		param := "fLIKE"
		switch row.Alg {
		case PlainGossip:
			param = "f"
		case CFWup, CFCos:
			param = "k"
		}
		fmt.Fprintf(&b, "  %-12s %-9s %-9.2f %-7.2f %-6.2f %.1fk\n",
			row.Alg, fmt.Sprintf("%s=%d", param, row.Fanout), row.Precision, row.Recall, row.F1, row.MsgsPerUser()/1000)
	}
	return b.String()
}

// Table4Result reproduces Table IV: among deliveries the receiver liked, the
// fraction forwarded 0..4 times by dislikers. A meaningful share above zero
// demonstrates the value of the dislike path.
type Table4Result struct {
	Fractions []float64 // index = number of dislike forwards, last bucket cumulative
}

// Table4 runs WhatsUp at fLIKE=10 and extracts the dislike histogram.
func Table4(o Options) Table4Result {
	o, ds := o.workload("survey")
	out := o.run(at(ds, WhatsUp, 10))
	return Table4Result{Fractions: out.Col.DislikeFractions(4)}
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
	b.WriteString("Table IV (survey, fLIKE=10): news received and liked via dislike\n")
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

// Table5Result reproduces Table V: WhatsUp against explicit filtering —
// cascading on Digg and the ideal C-Pub/Sub on the survey. Cascading should
// match WhatsUp's precision but with several-fold lower recall; C-Pub/Sub
// has recall 1 and minimal messages but lower precision.
type Table5Result struct {
	Rows []Point
}

// Table5 runs the four cells of Table V.
func Table5(o Options) Table5Result {
	o, digg := o.workload("digg")
	_, survey := o.workload("survey")
	return Table5Result{Rows: sweep(o, []cell{
		{RunConfig: RunConfig{Dataset: digg}, Label: "Cascade", Baseline: baselines.RunCascade},
		at(digg, WhatsUp, 10),
		{RunConfig: RunConfig{Dataset: survey}, Label: "C-Pub/Sub", Baseline: baselines.RunPubSub},
		at(survey, WhatsUp, 10),
	}, quality)}
}

// String renders the Table V rows.
func (r Table5Result) String() string {
	var b strings.Builder
	b.WriteString("Table V: WhatsUp vs C-Pub/Sub and Cascading\n")
	b.WriteString("  dataset  approach    precision recall  f1     messages\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8s %-11s %-9.2f %-7.2f %-6.2f %dk\n",
			row.Dataset.Name, row.Name(), row.Precision, row.Recall, row.F1, row.Messages/1000)
	}
	return b.String()
}

// Table6Result reproduces Table VI: performance against message loss on the
// survey workload. With fanout 6, F1 should be essentially unchanged up to
// 20% loss; with fanout 3 the smaller redundancy shows.
type Table6Result struct {
	Cells []Point
}

// Table6LossRates and Table6Fanouts are the paper's grid.
var (
	Table6LossRates = []float64{0, 0.05, 0.20, 0.50}
	Table6Fanouts   = []int{3, 6}
)

// Table6 runs the loss sweep. Loss affects BEEP and gossip messages alike,
// as in the ModelNet experiment of Section V-E.
func Table6(o Options) Table6Result {
	o, ds := o.workload("survey")
	var grid []cell
	for _, loss := range Table6LossRates {
		for _, f := range Table6Fanouts {
			c := at(ds, WhatsUp, f)
			c.Loss = loss
			grid = append(grid, c)
		}
	}
	return Table6Result{Cells: sweep(o, grid, quality)}
}

// String renders the Table VI grid.
func (r Table6Result) String() string {
	var b strings.Builder
	b.WriteString("Table VI (survey): performance vs message-loss rate\n")
	b.WriteString("  loss   fanout recall  precision f1\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-6.0f%% %-6d %-7.2f %-9.2f %.2f\n", c.Loss*100, c.Fanout, c.Recall, c.Precision, c.F1)
	}
	return b.String()
}
