package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/live"
	"whatsup/internal/metrics"
)

// deploymentCycleSeconds is the deployed gossip period (Section V-D), at
// which Figure 8b and LiveRun quote bandwidth.
const deploymentCycleSeconds = 30

// deploymentSurvey is the deployments' workload: the survey at half scale,
// ≈ 240 users at Scale 1 (the paper deployed 245 users on 170 PlanetLab
// machines and a 25-node ModelNet cluster).
func deploymentSurvey(o Options, cycles int) *dataset.Dataset {
	return dataset.Survey(dataset.SurveyConfig{Seed: o.Seed, Scale: o.Scale * 0.5, Cycles: cycles})
}

// LiveRunConfig tunes the live-transport scenario of cmd/whatsup-bench: one
// deployment-sized run over a real transport, reporting quality together
// with bandwidth measured from the encoded bytes on the wire. With ChurnRate
// or FlashCrowd set it becomes the live churn scenario — the same schedule
// shapes as ChurnRun, applied by the runtime's membership controller at
// cycle-tick boundaries — and the result gains per-cohort quality splits and
// the end-of-run ghost-descriptor fraction.
type LiveRunConfig struct {
	// ChurnOptions apply when churn is enabled.
	ChurnOptions

	// Transport selects the network: "channel" (ModelNet-style in-memory
	// emulation) or "tcp" (PlanetLab-style loopback sockets).
	Transport string
	// Cycles per run (default 40) and CycleLength (default 15 ms).
	Cycles      int
	CycleLength time.Duration
	// Node is every node's configuration. A static fleet runs without
	// eviction whatever its DescriptorTTL; a churned one gets withEviction's.
	Node core.Config
	// Loss is the channel transport's uniform message-loss rate. A TCP
	// fleet refuses one: its only loss is its bounded queues.
	Loss float64
}

func (c LiveRunConfig) withDefaults() LiveRunConfig {
	c.ChurnOptions = c.ChurnOptions.withDefaults(5)
	c.Node = withEviction(c.Node)
	if c.Transport == "" {
		c.Transport = "channel"
	}
	if c.Cycles <= 0 {
		c.Cycles = 40
	}
	if c.CycleLength <= 0 {
		c.CycleLength = 15 * time.Millisecond
	}
	return c
}

// schedulerSlack is the extra closing margin of the churn window in cycles,
// absorbing wall-clock tick jitter. Live runs tick on a wall clock, so a
// loaded machine can stretch late cycles; the margin grows with run length
// and widens when the runtime has a single scheduler thread (the
// configuration that showed stretched ticks in CI).
func (c LiveRunConfig) schedulerSlack() int64 {
	slack := 3 + int64(c.Cycles/16)
	if runtime.GOMAXPROCS(0) == 1 {
		slack += 2
	}
	return slack
}

// churnWindow bounds the trace-churn cycles [from, to): opening a quarter
// into the run and closing at least DescriptorTTL + downtime +
// schedulerSlack cycles before the end, so every departure has a full
// eviction horizon (plus rejoin downtime and tick jitter) to heal before
// GhostEndFraction is measured.
func (c LiveRunConfig) churnWindow() (from, to int64) {
	return churnWindow(c.Cycles, 4, c.Node.DescriptorTTL+c.downtime+c.schedulerSlack())
}

// churned reports whether the config enables the churn scenario.
func (c LiveRunConfig) churned() bool { return c.ChurnRate > 0 || c.FlashCrowd > 0 }

// LiveRunResult is the outcome of one live-transport run.
type LiveRunResult struct {
	Transport string
	Users     int
	Cycles    int
	Loss      float64 // the channel transport's message-loss rate
	metrics.Quality
	// Wire traffic measured from encoded frame lengths, split as in
	// Figure 8b, plus the per-node bandwidth those bytes would cost at the
	// paper's 30 s deployment gossip period.
	TotalBytes  int64
	GossipBytes int64
	BeepBytes   int64
	TotalKbps   float64

	// ChurnOutcome mirrors ChurnRun (zero when the fleet was static); its
	// timeline is sampled from views copied under each node's lock while the
	// run is live.
	ChurnOutcome
	// GhostEndFraction is the fraction of descriptors in online views that
	// point at a non-online member when the run ends; the schedule leaves at
	// least one eviction horizon after the last departure, so a healthy run
	// reports 0.
	GhostEndFraction float64
}

// LiveRun executes the live-transport scenario on the deployments' workload.
func LiveRun(o Options, cfg LiveRunConfig) (LiveRunResult, error) {
	o = o.WithDefaults()
	cfg = cfg.withDefaults()
	var network live.Network
	switch cfg.Transport {
	case "channel":
		network = live.NewChannelNet(o.Seed, cfg.Loss, cfg.CycleLength/10)
	case "tcp":
		if cfg.Loss > 0 {
			return LiveRunResult{}, fmt.Errorf("live: the tcp transport takes no uniform loss (got %g): its only loss is its bounded queues", cfg.Loss)
		}
		network = live.NewTCPNet(live.TCPNetConfig{SlowEvery: 4, SlowQueueCap: 96, QueueCap: 8192})
	default:
		return LiveRunResult{}, fmt.Errorf("live: unknown transport %q (want channel or tcp)", cfg.Transport)
	}
	ds := deploymentSurvey(o, cfg.Cycles)
	liveCfg := live.Config{Seed: o.Seed, Cycles: cfg.Cycles, CycleLength: cfg.CycleLength, NodeConfig: cfg.Node}
	if cfg.churned() {
		// Churn needs self-healing views, which the nodes' DescriptorTTL
		// gives them, and the schedule in the runtime's membership
		// controller, which also registers the joiners' recall denominators
		// and the churn cohorts (sim.World.Register).
		liveCfg.ChurnProtocolOptions = cfg.ChurnProtocolOptions
		liveCfg.Timeline = true
		from, to := cfg.churnWindow()
		liveCfg.Churn = cfg.schedule(o.Seed+7717, ds.Users, cfg.Cycles, from, to, (cfg.FlashCrowd+4)/5)
	} else {
		liveCfg.NodeConfig.DescriptorTTL = 0 // a static fleet evicts nothing
	}

	r := live.NewRunner(liveCfg, ds, network)
	col := r.Collector()
	r.Run()
	res := LiveRunResult{
		Transport:   cfg.Transport,
		Users:       ds.Users,
		Cycles:      cfg.Cycles,
		Loss:        cfg.Loss,
		Quality:     col.Quality(),
		TotalBytes:  col.TotalBytes(),
		GossipBytes: col.GossipBytes(),
		BeepBytes:   col.Bytes(metrics.MsgBeep),
		TotalKbps:   metrics.KbpsPerNode(col.TotalBytes(), cfg.Cycles, deploymentCycleSeconds, ds.Users),
	}
	if cfg.churned() {
		res.ChurnOutcome = churnOutcome(col, cfg.ChurnOptions, liveCfg.Churn, r.OnlineCount(), r.Timeline())
		res.GhostEndFraction = r.GhostFraction()
	}
	return res, nil
}

// String renders the run in the style of the paper's deployment tables.
func (r LiveRunResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live transport run: %s (%d users, %d cycles, loss=%.0f%%)\n", r.Transport, r.Users, r.Cycles, r.Loss*100)
	fmt.Fprintf(&b, "  precision %.3f  recall %.3f  F1 %.3f\n", r.Precision, r.Recall, r.F1)
	fmt.Fprintf(&b, "  messages %d  wire bytes %d (gossip %d, beep %d)\n",
		r.Messages, r.TotalBytes, r.GossipBytes, r.BeepBytes)
	fmt.Fprintf(&b, "  ≈ %.2f kbps per node at the deployment's 30 s cycle (Fig. 8b scale)",
		r.TotalKbps)
	if r.Events > 0 {
		fmt.Fprintf(&b, "\n  churn: %d events, +%d flash-crowd joiners, %d online at end, ghost-fraction(end)=%.4f\n",
			r.Events, r.Joiners, r.FinalOnline, r.GhostEndFraction)
		fmt.Fprintf(&b, "  healing: %s\n", r.healing())
		r.writeCohorts(&b)
	}
	return b.String()
}
