// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section V). Every driver is deterministic given its
// options and returns a printable result whose rows mirror the paper's.
// Sweep points (fanouts, loss rates, dataset×algorithm cells) run on a
// bounded worker pool; each point is an independent deterministic
// simulation.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"whatsup/internal/baselines"
	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// Algorithm names the gossip-driven systems of the evaluation.
type Algorithm string

// The gossip-driven algorithms compared throughout Section V.
const (
	WhatsUp     Algorithm = "WhatsUp"
	WhatsUpCos  Algorithm = "WhatsUp-Cos"
	CFWup       Algorithm = "CF-Wup"
	CFCos       Algorithm = "CF-Cos"
	PlainGossip Algorithm = "Gossip"
)

// Options are shared by all experiment drivers.
type Options struct {
	// Seed drives every random choice of the experiment.
	Seed int64
	// Scale shrinks the datasets (1.0 = paper scale, Table I).
	Scale float64
	// Workers is the sweep pool: how many points of a sweep run at once
	// (default NumCPU). The pool inside each point's engine is the embedded
	// field, written o.EngineOptions.Workers.
	Workers int
	// EngineOptions are forwarded to the engine of every sweep point.
	EngineOptions
}

// WithDefaults fills unset options.
func (o Options) WithDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// workload resolves the options and builds one of the three workloads under them.
func (o Options) workload(name string) (Options, *dataset.Dataset) {
	o = o.WithDefaults()
	return o, must(DatasetByName(name, o))
}

// RunConfig describes one simulation point.
type RunConfig struct {
	Dataset *dataset.Dataset
	Alg     Algorithm
	Fanout  int // fLIKE for WhatsUp variants, k for CF, f for gossip
	Seed    int64
	Loss    float64
	// Node is the peers' Table II parameters, core.Config's zero rules
	// included. The point's Fanout and Alg overwrite its FLike and Metric.
	Node core.Config
	// Cycles overrides the run length (0 = dataset default).
	Cycles int
	EngineOptions
}

// Outcome bundles a finished run.
type Outcome struct {
	Col    *metrics.Collector
	Engine *sim.Engine
	Cycles int
}

// peerFactory returns the constructor of one algorithm's peers.
func peerFactory(rc RunConfig, op core.Opinions) func(id news.NodeID) sim.Peer {
	cfg := rc.Node
	cfg.FLike, cfg.Metric = rc.Fanout, profile.WUP{}
	if rc.Alg == WhatsUpCos || rc.Alg == CFCos {
		cfg.Metric = profile.Cosine{}
	}
	switch rc.Alg {
	case PlainGossip:
		return func(id news.NodeID) sim.Peer {
			return baselines.NewGossip(id, rc.Fanout, cfg, op, sim.PeerRNG(rc.Seed, int(id)))
		}
	case CFWup, CFCos:
		return func(id news.NodeID) sim.Peer {
			return baselines.NewCF(id, rc.Fanout, cfg, op, sim.PeerRNG(rc.Seed, int(id)))
		}
	case WhatsUpCos, WhatsUp:
		return sim.WhatsUpPeers(cfg, op, rc.Seed)
	default:
		panic(fmt.Sprintf("experiments: unknown algorithm %q", rc.Alg))
	}
}

// Run executes one simulation point.
func Run(rc RunConfig) Outcome {
	cycles := rc.Cycles
	if cycles == 0 {
		cycles = rc.Dataset.Cycles
	}
	w := sim.DatasetWorld(rc.Dataset)
	w.NewPeer = peerFactory(rc, w.Opinions)
	e, col := w.NewEngine(rc.engine(sim.Config{Seed: rc.Seed, Cycles: cycles, Loss: rc.Loss}))
	e.Run()
	return Outcome{Col: col, Engine: e, Cycles: cycles}
}

// parallel runs jobs on a bounded pool, preserving result order. Each job is
// independent and deterministic, so concurrency does not affect results.
func parallel[T any](workers int, jobs []func() T) []T {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	out := make([]T, len(jobs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job func() T) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = job()
		}(i, job)
	}
	wg.Wait()
	return out
}

// DatasetByName builds one of the three workloads ("synthetic", "digg",
// "survey") at the given options.
func DatasetByName(name string, o Options) (*dataset.Dataset, error) {
	switch name {
	case "synthetic":
		return dataset.Synthetic(dataset.SyntheticConfig{Seed: o.Seed, Scale: o.Scale}), nil
	case "digg":
		return dataset.Digg(dataset.DiggConfig{Seed: o.Seed, Scale: o.Scale}), nil
	case "survey":
		return dataset.Survey(dataset.SurveyConfig{Seed: o.Seed, Scale: o.Scale}), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want synthetic, digg or survey)", name)
	}
}

// must unwraps a result whose error only a bug in the caller can produce,
// such as DatasetByName on a constant name.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
