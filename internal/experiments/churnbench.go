package experiments

import (
	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// The churn bench is the churn scenario's second world recipe: instead of a
// paper trace, a synthetic 5k-peer 4-community world where 20% of the
// population churns (half crashes with rejoin, half graceful leaves) plus a
// flash crowd, with descriptor-TTL eviction active — the membership
// subsystem at scale. It shares ChurnRun's tail, result and report
// (`whatsup-bench -run churn` prints it); the same community shape backs the
// `churn-cycle-*` scenario of BenchmarkHotPath, whose allocations the CI
// benchdiff gate pins.

// ChurnBenchConfig sizes the churn bench world. The churn-protocol knobs
// live in the embedded ChurnOptions, shared with ChurnRun and LiveRun;
// here ChurnRate zero means no trace churn (the flash crowd still
// arrives), so a churn-free control can be run — the CLI flag supplies the
// canonical 0.20 default — and FlashCrowd defaults to Peers/20 instead of
// none.
type ChurnBenchConfig struct {
	ChurnOptions
	EngineOptions
	// Peers is the base population (default 5000).
	Peers int
	// Cycles is the run length (default 45).
	Cycles int
}

func (c ChurnBenchConfig) withDefaults() ChurnBenchConfig {
	c.ChurnOptions = c.ChurnOptions.withDefaults(6)
	if c.Peers <= 0 {
		c.Peers = 5000
	}
	if c.Cycles <= 0 {
		c.Cycles = 45
	}
	if c.FlashCrowd <= 0 {
		c.FlashCrowd = c.Peers / 20
	}
	return c
}

// ChurnBench runs the bench world: peers in 4 interest communities, a steady
// publication schedule, a churn trace across the middle of the run and a
// flash crowd a third in.
func ChurnBench(cfg ChurnBenchConfig) ChurnResult {
	cfg = cfg.withDefaults()
	ttl, downtime := cfg.DescriptorTTL, cfg.Downtime
	w := sim.Communities(cfg.Peers, 4, 6, cfg.Cycles, "churn")
	nodeCfg := core.Config{FLike: 6, RPSViewSize: 20, DescriptorTTL: ttl}
	w.NewPeer = func(id news.NodeID) sim.Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, nodeRNG(1, int(id)))
	}

	// The churn window closes one eviction horizon plus one downtime before
	// the end, so the run itself proves self-healing: every crasher has
	// rejoined and every departed descriptor has aged out by the last cycle
	// (the end-state ghost fraction must come back 0).
	churnFrom := int64(cfg.Cycles / 5)
	churnTo := int64(cfg.Cycles) - ttl - downtime
	if churnTo <= churnFrom {
		churnTo = churnFrom + 1
	}
	perCycle := cfg.ChurnRate / float64(churnTo-churnFrom)
	w.Churn = sim.ChurnTrace(sim.ChurnTraceConfig{
		Seed:      99,
		Nodes:     cfg.Peers,
		From:      churnFrom,
		To:        churnTo,
		CrashRate: perCycle / 2,
		LeaveRate: perCycle / 2,
		Downtime:  downtime,
	})
	w.Churn.Merge(sim.FlashCrowd(int64(cfg.Cycles/3), news.NodeID(cfg.Peers), cfg.FlashCrowd, cfg.FlashCrowd/5+1))

	return runChurn("communities", w, cfg.ChurnOptions, cfg.engine(sim.Config{
		Seed: 1, Cycles: cfg.Cycles, BootstrapDegree: 5,
	}))
}
