package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The miniatures run each workload's real code path at a size tier-1 can
// afford — 64 peers for 2 × 3 cycles, a 16-node fleet for 300 ms — and check
// the output contract, not the numbers.

func miniSim(p simParams) simParams {
	p.peers, p.warm, p.cycles, p.minReps, p.maxReps = 64, 3, 3, 2, 2
	p.kernel = 2 * time.Millisecond
	return p
}

func miniLive(p liveParams) liveParams {
	p.nodes, p.cycle, p.warmup = 16, 20*time.Millisecond, 200*time.Millisecond
	p.quiet, p.late, p.slice = 2*time.Millisecond, 100*time.Millisecond, 50*time.Millisecond
	p.pubRate = 100 // enough items in 300 ms that recall cannot come out 0 by chance
	p.kernel = 2 * time.Millisecond
	return p
}

func miniRun(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	const seed = 7
	switch workload {
	case "sim-churn", "sim-sharded":
		p := miniSim(simChurnParams())
		if workload == "sim-sharded" {
			p = miniSim(simShardedParams())
		}
		if trace {
			return runSimTraced(p, seed, &spanLog{})
		}
		return runSim(p, seed, time.Minute)
	case "live-publish":
		p := miniLive(livePublishParams())
		return runLive(p, seed, time.Now().Add(p.warmup+300*time.Millisecond), trace, &spanLog{})
	case "serve-mixed":
		p := miniLive(serveMixedParams())
		return runLive(p, seed, time.Now().Add(p.warmup+300*time.Millisecond), trace, &spanLog{})
	}
	t.Fatalf("no miniature for workload %q", workload)
	return nil
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	return file
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and the program's own
// tables from drifting apart (regenerate with `go run ./benchmark -spec`).
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	if !reflect.DeepEqual(readBenchmarkFile(t), benchmarkSpec()) {
		t.Fatal("BENCHMARK.json differs from the benchmark's spec; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
}

// TestEveryMetricEmittedOnce runs a miniature of each workload, untraced and
// traced, and asserts the output contract: every name BENCHMARK.json lists
// is printed exactly once with a finite value, and nothing else is.
func TestEveryMetricEmittedOnce(t *testing.T) {
	file := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range file.Workloads {
		for _, trace := range []bool{false, true} {
			specs, kind := file.EndToEnd, "end-to-end"
			if trace {
				specs, kind = file.PerLayer, "per-layer"
			}
			t.Run(w.Name+"/"+kind, func(t *testing.T) {
				rep := miniRun(t, w.Name, trace)
				var stdout, stderr bytes.Buffer
				res, err := emit(rep, specs, &stdout, &stderr)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var last resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if len(last.Metrics) != len(specs) {
					t.Fatalf("result has %d metrics, BENCHMARK.json lists %d", len(last.Metrics), len(specs))
				}
				for _, s := range specs {
					if !nameRE.MatchString(s.Name) {
						t.Errorf("metric name %q is not a valid name", s.Name)
					}
					m, ok := last.Metrics[s.Name]
					if !ok {
						t.Errorf("metric %s missing from the result", s.Name)
						continue
					}
					if m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %q, want a finite value in %q", s.Name, m.Value, m.Unit, s.Unit)
					}
					printed := 0
					for _, l := range lines[:len(lines)-1] {
						if f := strings.Fields(l); len(f) > 0 && f[0] == s.Name {
							printed++
						}
					}
					if printed != 1 {
						t.Errorf("metric %s printed %d times, want once", s.Name, printed)
					}
				}
			})
		}
	}
}

// TestEndToEndMetricsAreNeverZero: the harness compares medians by ratio, so
// an end-to-end metric that can read 0 would be useless to it.
func TestEndToEndMetricsAreNeverZero(t *testing.T) {
	for _, w := range workloads {
		rep := miniRun(t, w.Name, false)
		for _, s := range endToEnd {
			if rep.values[s.Name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, s.Name, rep.values[s.Name])
			}
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to the one the accepting
// harness uses: statistics.quantiles(values, n=4), exclusive method.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// TestEnvelopeTakesTheFastestReplicatePerCycle pins the estimator the sim
// timings rest on.
func TestEnvelopeTakesTheFastestReplicatePerCycle(t *testing.T) {
	env := envelope([]simReplicate{
		{steps: []time.Duration{3 * time.Millisecond, 9 * time.Millisecond}},
		{steps: []time.Duration{5 * time.Millisecond, 2 * time.Millisecond}},
	}, func(r simReplicate) []time.Duration { return r.steps })
	if !reflect.DeepEqual(env, []float64{3, 2}) {
		t.Fatalf("envelope = %v, want [3 2]", env)
	}
}
