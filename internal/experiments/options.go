package experiments

import (
	"whatsup/internal/core"
	"whatsup/internal/sim"
)

// EngineOptions size the simulation engine behind a driver. Every driver
// config embeds it, so the two knobs are declared, documented and resolved
// exactly once. Results are bit-identical for any value of either.
type EngineOptions struct {
	// Workers is the engine worker pool (sim.Config.Workers). 0 runs the
	// engine serially: sweep drivers already run one point per core, and a
	// benchmark entry should not silently depend on the host's core count.
	Workers int
	// Shards is the engine slab count (sim.Config.Shards, 0 = single slab).
	Shards int
}

// engine writes the options into an engine config, resolving the zero value.
func (o EngineOptions) engine(cfg sim.Config) sim.Config {
	cfg.Workers, cfg.Shards = max(o.Workers, 1), o.Shards
	return cfg
}

// ChurnOptions are the churn-protocol knobs shared by every driver that
// exercises the lifecycle-aware membership layer — the sim churn scenario
// (ChurnConfig), the live-transport scenario (LiveRunConfig) and the churn
// bench (ChurnBenchConfig) embed it, so each knob is declared, documented
// and defaulted exactly once. Only Downtime keeps a per-driver default.
type ChurnOptions struct {
	// ChurnRate is the expected fraction of the base population hit by a
	// churn event over the run (half crashes-with-rejoin, half graceful
	// leaves; the bench draws only from its own trace shape). 0 = static
	// fleet.
	ChurnRate float64
	// FlashCrowd is the number of brand-new nodes joining as a flash crowd
	// one third into the run (0 = none, except the bench, which defaults it
	// from its population). Joiners cold-start from a live host's views
	// (Section II-D).
	FlashCrowd int
	// Downtime is how many cycles a crashed node stays offline before its
	// rejoin. Zero takes the driver's default: 8 for the sim scenario, 5
	// for the live scenario, 6 for the bench.
	Downtime int64
	// DescriptorTTL is the view eviction horizon in cycles (default
	// core.DefaultDescriptorTTL, shared by all drivers so quality numbers
	// from the different runtimes stay comparable).
	DescriptorTTL int64
	// DepartureNotices enables the churn protocol's graceful-departure
	// notices (sim.Config.DepartureNotices / live.Config.DepartureNotices).
	DepartureNotices bool
	// RefillWatermark enables adaptive view refill below this occupancy
	// fraction (0 = off).
	RefillWatermark float64
}

// withDefaults fills the shared churn defaults; defaultDowntime is the
// embedding driver's.
func (c ChurnOptions) withDefaults(defaultDowntime int64) ChurnOptions {
	if c.ChurnRate < 0 {
		c.ChurnRate = 0
	}
	if c.Downtime <= 0 {
		c.Downtime = defaultDowntime
	}
	if c.DescriptorTTL <= 0 {
		c.DescriptorTTL = core.DefaultDescriptorTTL
	}
	return c
}
