// Command whatsup-benchdiff compares a `go test -bench -benchmem` output
// against the committed baseline and fails when an allocation metric grows
// beyond the threshold. It is the CI gate for the gossip hot path: allocs/op
// and B/op are properties of the code, comparable between any two hosts, and
// gated under one threshold (a zero baseline fails on any growth). ns/op is
// printed for the reader and never gated — identical code moves it by tens
// of percent between runs on shared hardware. The baseline and the candidate
// must hold the same scenarios: one missing from either side fails the run.
//
// Usage (the cycle scenarios run a fixed 45 cycles, as in the baseline,
// because their allocs/op depends on how many cycles are measured):
//
//	go test -run '^$' -bench BenchmarkHotPath -skip BenchmarkHotPath/cycle -benchmem ./internal/experiments/ > bench_hotpath.txt
//	go test -run '^$' -bench BenchmarkHotPath/cycle -benchtime 45x -benchmem ./internal/experiments/ >> bench_hotpath.txt
//	whatsup-benchdiff -old bench_baseline.txt -new bench_hotpath.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is one parsed benchmark line, averaged over repetitions.
type result struct {
	ns     float64
	bytes  float64
	allocs float64
	runs   int
}

// procSuffix strips the trailing "-<GOMAXPROCS>" so baselines recorded on
// hosts with different core counts still match.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark results from `go test -bench -benchmem`
// output. Repeated entries for one name are averaged.
func parseBench(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		res := out[name]
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.ns += v
			case "B/op":
				res.bytes += v
			case "allocs/op":
				res.allocs += v
			}
		}
		res.runs++
		out[name] = res
	}
	return out, sc.Err()
}

func (r result) avg() result {
	if r.runs <= 1 {
		return r
	}
	n := float64(r.runs)
	return result{ns: r.ns / n, bytes: r.bytes / n, allocs: r.allocs / n, runs: 1}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whatsup-benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		oldPath     = fs.String("old", "", "baseline bench output")
		newPath     = fs.String("new", "", "candidate bench output")
		filter      = fs.String("filter", "^BenchmarkHotPath/", "regexp selecting benchmarks to compare")
		allocThresh = fs.Float64("allocs-threshold", 0.10, "max allowed relative growth of allocs/op and of B/op")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "both -old and -new are required")
		return 2
	}
	if *allocThresh < 0 {
		fmt.Fprintln(stderr, "-allocs-threshold must not be negative")
		return 2
	}
	sel, err := regexp.Compile(*filter)
	if err != nil {
		fmt.Fprintf(stderr, "bad -filter: %v\n", err)
		return 2
	}
	parse := func(path string) (map[string]result, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return parseBench(f)
	}
	oldRes, err := parse(*oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "reading baseline: %v\n", err)
		return 2
	}
	newRes, err := parse(*newPath)
	if err != nil {
		fmt.Fprintf(stderr, "reading candidate: %v\n", err)
		return 2
	}

	// Partition filter-matching scenarios: compared (in both), baseline-only
	// (dropped or renamed in the candidate) and candidate-only (new, with no
	// baseline to gate against). Either one-sided set fails the run: a new
	// scenario is recorded in the baseline by the change that adds it.
	var names, onlyOld, onlyNew []string
	for name := range newRes {
		if !sel.MatchString(name) {
			continue
		}
		if _, ok := oldRes[name]; ok {
			names = append(names, name)
		} else {
			onlyNew = append(onlyNew, name)
		}
	}
	for name := range oldRes {
		if sel.MatchString(name) {
			if _, ok := newRes[name]; !ok {
				onlyOld = append(onlyOld, name)
			}
		}
	}
	sort.Strings(names)
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	for _, name := range onlyNew {
		fmt.Fprintf(stdout, "+ %-44s new scenario, not in the baseline\n", name)
	}
	for _, name := range onlyOld {
		fmt.Fprintf(stdout, "! %-44s baseline scenario missing from candidate\n", name)
	}
	if len(names) == 0 && len(onlyOld) == 0 && len(onlyNew) == 0 {
		fmt.Fprintf(stderr, "no benchmarks matched %q in either file\n", *filter)
		return 2
	}

	regressions := 0
	report := func(name, metric string, old, new float64, gated bool) {
		marker := "·" // informational only
		if gated {
			marker = " "
			if new > old*(1+*allocThresh) {
				marker = "✗"
				regressions++
			}
		}
		delta := 0.0
		if old > 0 {
			delta = (new - old) / old * 100
		}
		fmt.Fprintf(stdout, "%s %-44s %-10s %14.1f -> %12.1f  (%+.1f%%)\n",
			marker, name, metric, old, new, delta)
	}
	for _, name := range names {
		o, n := oldRes[name].avg(), newRes[name].avg()
		report(name, "allocs/op", o.allocs, n.allocs, true)
		report(name, "B/op", o.bytes, n.bytes, true)
		report(name, "ns/op", o.ns, n.ns, false)
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "%d hot-path allocation regression(s) beyond threshold\n", regressions)
		return 1
	}
	if n := len(onlyOld) + len(onlyNew); n > 0 {
		fmt.Fprintf(stderr, "%d scenario(s) in only one of baseline and candidate\n", n)
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d benchmarks within threshold\n", len(names))
	return 0
}
