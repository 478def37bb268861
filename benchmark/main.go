// Command benchmark is the instrument this repository is measured with: four
// long, replicated workloads over the simulator, the live fleet and the HTTP
// API, reporting nine end-to-end metrics per workload and — on a separate
// traced run — per-layer numbers obtained only by timing calls into each
// package's public functions. README.md in this directory defines every
// workload and metric; BENCHMARK.json at the repo root is the contract.
//
//	go run ./benchmark -workload sim-churn -seed 1            # end-to-end metrics
//	go run ./benchmark -workload serve-mixed -seed 1 -trace 1 # per-layer metrics
//	go run ./benchmark -workload sim-sharded -repeat 10 -out a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runWorkload dispatches one run of one workload.
func runWorkload(name string, seed int64, budget time.Duration, trace bool, log *spanLog) (*report, error) {
	switch name {
	case "sim-churn", "sim-sharded":
		p := simChurnParams()
		if name == "sim-sharded" {
			p = simShardedParams()
		}
		if trace {
			return runSimTraced(p, seed, log), nil
		}
		return runSim(p, seed, budget), nil
	case "live-publish", "serve-mixed":
		p := livePublishParams()
		if name == "serve-mixed" {
			p = serveMixedParams()
		}
		deadline := processStart.Add(budget)
		if trace {
			deadline = deadline.Add(-kernelsTime) // the kernels run after the window, inside the budget
		}
		return runLive(p, seed, deadline, trace, log), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sim-churn, sim-sharded, live-publish or serve-mixed)", name)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders a report against the metric list it must fill: every listed
// metric exactly once (a layer the workload does not exercise reads 0). A
// non-finite value, or a value under a name neither list knows, is a failed
// check.
func (r *report) result(specs []metricSpec) resultLine {
	out := resultLine{Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		val := r.values[s.Name]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			r.check(false, "metric "+s.Name+" is not finite")
			val = 0
		}
		out.Metrics[s.Name] = metricValue{Value: val, Unit: s.Unit}
	}
	for name := range r.values {
		if !slices.ContainsFunc(append(endToEnd, perLayer...), func(s metricSpec) bool { return s.Name == name }) {
			r.check(false, "metric "+name+" is measured but listed nowhere in the spec")
		}
	}
	out.Correct, out.Attempted, out.Failed = r.failed == 0, max(r.attempted, 1), r.failed
	return out
}

// emit prints a run's outcome: failed checks to stderr, then every metric of
// the list by name with its unit, then — for the operator only — whatever
// else the run measured (an untraced run also takes the ungated timings),
// then the result object as the last line of stdout.
func emit(rep *report, specs []metricSpec, stdout, stderr io.Writer) (resultLine, error) {
	res := rep.result(specs)
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "benchmark: FAILED CHECK:", f)
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "%-34s %16.6f %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
	for _, s := range perLayer {
		if _, listed := res.Metrics[s.Name]; listed {
			continue
		}
		if val, measured := rep.values[s.Name]; measured {
			fmt.Fprintf(stdout, "(ungated) %-24s %16.6f %s\n", s.Name, val, s.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return res, err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sim-churn, sim-sharded, live-publish, serve-mixed")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", runSeconds, "how long the run measures, set-up included")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	traceOut := fs.String("trace-out", "", "traced run: write the recorded spans to this file as JSON")
	repeat := fs.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print median and quartiles per metric")
	out := fs.String("out", "", "with -repeat: also write the runs to this file for -compare")
	compare := fs.Bool("compare", false, "compare two -repeat files given as arguments against the bounds")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec:
		stdout.Write(specJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two files written by -repeat -out")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *repeat > 0:
		return repeatRuns(*workload, *seed, *seconds, *trace, *repeat, *out, stdout, stderr)
	}

	// Generators use at most two goroutines and the engine at most two
	// workers; pinning the processor count keeps a bigger box from changing
	// what is measured.
	runtime.GOMAXPROCS(2)
	var log *spanLog
	if *trace != 0 && *traceOut != "" {
		log = &spanLog{}
	}
	rep, err := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *trace != 0, log)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	specs := endToEnd
	if *trace != 0 {
		specs = perLayer
	}
	if log != nil {
		if err := log.writeFile(*traceOut); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			return 1
		}
	}
	res, err := emit(rep, specs, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
