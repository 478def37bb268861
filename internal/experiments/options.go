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
	// Shards is the engine's routing partition count (sim.Config.Shards,
	// 0 = none): gossip crossing a partition goes through the wire codec.
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
// and defaulted exactly once. Only the rejoin downtime is per driver.
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

	// downtime is how many cycles a crashed node stays offline before its
	// rejoin, fixed by the embedding driver: 8 for the sim scenario, 5 for
	// the live scenario, 6 for the bench.
	downtime int64
}

// withDefaults fills the shared churn defaults and the embedding driver's
// downtime.
func (c ChurnOptions) withDefaults(downtime int64) ChurnOptions {
	if c.ChurnRate < 0 {
		c.ChurnRate = 0
	}
	c.downtime = downtime
	if c.DescriptorTTL <= 0 {
		c.DescriptorTTL = core.DefaultDescriptorTTL
	}
	return c
}
