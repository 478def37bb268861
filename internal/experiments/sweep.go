package experiments

import (
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
)

// An exhibit is a grid of cells, a measure read off each finished cell and a
// formatter for the measured rows: the driver names what varies, sweep runs
// the grid on the pool, and String prints the paper's rows. A new exhibit
// adds those three and one hash in TestExhibitsPinned.

// cell is one grid point: a simulation, or — when Baseline is set — a
// comparison system that fills a collector by itself (RunCentral,
// RunCascade, RunPubSub). A grid leaves Seed and EngineOptions unset;
// Options.run stamps them.
type cell struct {
	RunConfig
	// Label names the row where the configuration does not: a baseline's
	// name, an ablation's setting.
	Label string
	// Baseline runs instead of the simulation.
	Baseline func(ds *dataset.Dataset, col *metrics.Collector)
}

// at is the common cell: one algorithm at one fanout on one workload.
func at(ds *dataset.Dataset, alg Algorithm, fanout int) cell {
	return cell{RunConfig: RunConfig{Dataset: ds, Alg: alg, Fanout: fanout}}
}

// fanoutGrid crosses algorithms with fanouts, one algorithm's curve after
// the other (the order bySeries cuts).
func fanoutGrid(ds *dataset.Dataset, algs []Algorithm, fanouts []int) []cell {
	grid := make([]cell, 0, len(algs)*len(fanouts))
	for _, alg := range algs {
		for _, f := range fanouts {
			grid = append(grid, at(ds, alg, f))
		}
	}
	return grid
}

// Name is the row's name column: the label, or else the algorithm.
func (c cell) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return string(c.Alg)
}

// run executes one cell under the options' seed and engine sizing.
func (o Options) run(c cell) Outcome {
	if c.Baseline != nil {
		col := metrics.NewCollector()
		c.Baseline(c.Dataset, col)
		return Outcome{Col: col}
	}
	c.Seed, c.EngineOptions = o.Seed, o.EngineOptions
	return Run(c.RunConfig)
}

// sweep runs every cell of the grid on the options' pool and returns what
// measure read off each, in grid order.
func sweep[T any](o Options, grid []cell, measure func(cell, Outcome) T) []T {
	jobs := make([]func() T, len(grid))
	for i, c := range grid {
		jobs[i] = func() T { return measure(c, o.run(c)) }
	}
	return parallel(o.Workers, jobs)
}

// Point is a measured cell, the row type of every quality exhibit: what
// ran, for how many cycles (0 for a baseline), and the headline it scored.
type Point struct {
	cell
	metrics.Quality
	Ran int
}

// quality is the measure of the quality exhibits.
func quality(c cell, out Outcome) Point {
	return Point{cell: c, Quality: out.Col.Quality(), Ran: out.Cycles}
}

// MsgsPerUser is Table III's "Mess./User".
func (p Point) MsgsPerUser() float64 { return float64(p.Messages) / float64(p.Dataset.Users) }

// MsgsPerCycleNode is the x-axis of Figures 3d-3f.
func (p Point) MsgsPerCycleNode() float64 {
	return float64(p.Messages) / float64(p.Ran) / float64(p.Dataset.Users)
}

// Series is one system's curve.
type Series[T any] struct {
	Name   string
	Points []T
}

// bySeries cuts a sweep that ran one curve after the other into its curves.
func bySeries[N ~string, T any](names []N, pts []T) []Series[T] {
	per := len(pts) / len(names)
	out := make([]Series[T], len(names))
	for i, name := range names {
		out[i] = Series[T]{Name: string(name), Points: pts[i*per : (i+1)*per]}
	}
	return out
}

// Best returns the best-F1 point of a curve (the zero Point if none scores).
func Best(pts []Point) Point {
	var best Point
	for _, p := range pts {
		if p.F1 > best.F1 {
			best = p
		}
	}
	return best
}
