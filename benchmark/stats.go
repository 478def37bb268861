package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runSet is what -repeat writes and -compare reads: every run of one
// workload at one commit.
type runSet struct {
	Workload string       `json:"workload"`
	Trace    int          `json:"trace"`
	Seeds    []int64      `json:"seeds"`
	Runs     []resultLine `json:"runs"`
}

// quartiles returns the quartiles of values as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// because that is what the harness that accepts this benchmark uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise figure every bound is judged against.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, q2)
}

func (rs runSet) column(metric string) []float64 {
	col := make([]float64, 0, len(rs.Runs))
	for _, r := range rs.Runs {
		col = append(col, r.Metrics[metric].Value)
	}
	return col
}

func (rs runSet) specs() []metricSpec {
	if rs.Trace != 0 {
		return perLayer
	}
	return endToEnd
}

// repeatRuns runs the workload n times, each in a fresh process (peak RSS
// and set-up are per process) with its own seed, and prints median,
// quartiles and spread per metric.
func repeatRuns(workload string, seed int64, seconds, trace, n int, outPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rs := runSet{Workload: workload, Trace: trace}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		output, err := cmd.Output() // waits for the child to end
		lines := bytes.Split(bytes.TrimSpace(output), []byte("\n"))
		var res resultLine
		if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
			fmt.Fprintf(stderr, "benchmark: run %d (seed %d) printed no result: %v %v\n", i, s, err, jerr)
			return 1
		}
		fmt.Fprintf(stderr, "run %d/%d seed %d: correct=%t attempted=%d failed=%d\n", i+1, n, s, res.Correct, res.Attempted, res.Failed)
		rs.Seeds = append(rs.Seeds, s)
		rs.Runs = append(rs.Runs, res)
	}
	fmt.Fprintf(stdout, "%s, %d runs, seeds %d..%d\n", workload, n, seed, seed+int64(n)-1)
	fmt.Fprintf(stdout, "%-34s %-6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, m := range rs.specs() {
		col := rs.column(m.Name)
		q1, q2, q3 := quartiles(col)
		fmt.Fprintf(stdout, "%-34s %-6s %14.4f %14.4f %14.4f %7.2f%%\n", m.Name, m.Unit, q1, q2, q3, 100*spread(col))
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rs, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, r := range rs.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

func readRunSet(path string) (runSet, error) {
	var rs runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(data, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.Runs) == 0 {
		return rs, fmt.Errorf("%s: no runs", path)
	}
	return rs, nil
}

// compareFiles prints, per metric, the two sets' medians and by how much the
// second is worse than the first, against the metric's bound. It exits 1
// when an end-to-end metric worsened by more than its bound.
func compareFiles(aPath, bPath string, stdout, stderr io.Writer) int {
	a, err := readRunSet(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readRunSet(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(stderr, "benchmark: %s is %s trace=%d but %s is %s trace=%d\n", aPath, a.Workload, a.Trace, bPath, b.Workload, b.Trace)
		return 2
	}
	fmt.Fprintf(stdout, "%s: %d runs vs %d runs\n", a.Workload, len(a.Runs), len(b.Runs))
	fmt.Fprintf(stdout, "%-34s %14s %14s %9s %8s %8s %7s  %s\n", "metric", "median a", "median b", "worse by", "spread a", "spread b", "bound", "verdict")
	exit := 0
	for _, m := range a.specs() {
		ca, cb := a.column(m.Name), b.column(m.Name)
		_, ma, _ := quartiles(ca)
		_, mb, _ := quartiles(cb)
		worse := ratio(mb-ma, ma)
		if m.Better == "higher" {
			worse = -worse
		}
		verdict, bound := "", "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.1f%%", 100*m.Bound)
			switch {
			case worse > m.Bound:
				verdict, exit = "WORSE", 1
			case max(spread(ca), spread(cb)) > m.Bound:
				verdict = "unresolved (spread wider than bound)"
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(stdout, "%-34s %14.4f %14.4f %+8.2f%% %7.2f%% %7.2f%% %7s  %s\n",
			m.Name, ma, mb, 100*worse, 100*spread(ca), 100*spread(cb), bound, verdict)
	}
	return exit
}
