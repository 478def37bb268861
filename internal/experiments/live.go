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
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// LiveRunConfig tunes the live-transport scenario of cmd/whatsup-bench: one
// deployment-sized run over a real transport, reporting quality together
// with bandwidth measured from the encoded bytes on the wire. With ChurnRate
// or FlashCrowd set it becomes the live churn scenario — the same schedule
// shapes as ChurnRun, applied by the runtime's membership controller at
// cycle-tick boundaries — and the result gains per-cohort quality splits and
// the end-of-run ghost-descriptor fraction.
type LiveRunConfig struct {
	// ChurnOptions are the shared churn-protocol knobs (rate, flash crowd,
	// downtime, eviction horizon, departure notices, refill), applied when
	// churn is enabled. The churn window is sized so the last departure
	// sits at least one horizon plus one downtime before the end of the
	// run, so a healthy run ends ghost-free.
	ChurnOptions

	// Transport selects the network: "channel" (ModelNet-style in-memory
	// emulation) or "tcp" (PlanetLab-style loopback sockets).
	Transport string
	// Cycles per run (default 40) and CycleLength (default 15 ms).
	Cycles      int
	CycleLength time.Duration
	// Fanout is the BEEP like-fanout (default core.DefaultFLike).
	Fanout int
	// LossRate is the channel transport's uniform loss (default 2%;
	// negative runs lossless).
	LossRate float64
	// BatchWindow is the TCP transport's write-coalescing window.
	BatchWindow time.Duration
	// SchedulerSlack is the extra margin, in cycles, between the close of
	// the churn window and the point one horizon+downtime before the run
	// end, absorbing wall-clock tick jitter on loaded machines. 0 derives
	// a default from the run length and available parallelism.
	SchedulerSlack int64
}

func (c LiveRunConfig) withDefaults() LiveRunConfig {
	c.ChurnOptions = c.ChurnOptions.withDefaults(5)
	if c.Transport == "" {
		c.Transport = "channel"
	}
	if c.Cycles <= 0 {
		c.Cycles = 40
	}
	if c.CycleLength <= 0 {
		c.CycleLength = 15 * time.Millisecond
	}
	if c.LossRate == 0 {
		c.LossRate = 0.02
	} else if c.LossRate < 0 {
		c.LossRate = 0
	}
	return c
}

// schedulerSlack is the closing margin of the churn window in cycles. Live
// runs tick on a wall clock, so a loaded machine can stretch late cycles;
// the margin grows with run length and widens when the runtime has a single
// scheduler thread (the configuration that showed stretched ticks in CI).
func (c LiveRunConfig) schedulerSlack() int64 {
	if c.SchedulerSlack > 0 {
		return c.SchedulerSlack
	}
	slack := 3 + int64(c.Cycles/16)
	if runtime.GOMAXPROCS(0) == 1 {
		slack += 2
	}
	return slack
}

// churnWindow bounds the trace-churn cycles [from, to): opening a quarter
// into the run and closing at least DescriptorTTL + Downtime +
// schedulerSlack cycles before the end, so every departure has a full
// eviction horizon (plus rejoin downtime and tick jitter) to heal before
// GhostEndFraction is measured.
func (c LiveRunConfig) churnWindow() (from, to int64) {
	from = int64(c.Cycles / 4)
	to = int64(c.Cycles) - c.DescriptorTTL - c.Downtime - c.schedulerSlack()
	if to <= from {
		to = from + 1
	}
	return from, to
}

// churned reports whether the config enables the churn scenario.
func (c LiveRunConfig) churned() bool { return c.ChurnRate > 0 || c.FlashCrowd > 0 }

// LiveRunResult is the outcome of one live-transport run.
type LiveRunResult struct {
	Transport string
	Users     int
	Cycles    int
	Precision float64
	Recall    float64
	F1        float64
	Messages  int64
	// Wire traffic measured from encoded frame lengths, split as in
	// Figure 8b, plus the per-node bandwidth those bytes would cost at the
	// paper's 30 s deployment gossip period.
	TotalBytes  int64
	GossipBytes int64
	BeepBytes   int64
	TotalKbps   float64

	// Churn-scenario fields (zero when the fleet was static).
	Joiners     int
	Events      int
	FinalOnline int
	// Per-cohort node-level splits, mirroring ChurnRun.
	Stable, Joiner, Rejoiner, Departed metrics.CohortSummary
	// GhostEndFraction is the fraction of descriptors in online views that
	// point at a non-online member when the run ends; the schedule leaves at
	// least one eviction horizon after the last departure, so a healthy run
	// reports 0.
	GhostEndFraction float64
	// Timeline holds the fleet's per-cycle health samples (online counts,
	// ghost fraction, view fills, cohorts), published by the runtime's
	// control channel while the run was live.
	Timeline []metrics.ChurnSample
	// LastDeparture, HealedAt and TimeToHealed mirror ChurnRun: the cycle
	// of the last leave/crash, the first ghost-free cycle at or after it
	// (-1 if the run never healed), and the gap between the two.
	LastDeparture int64
	HealedAt      int64
	TimeToHealed  int64
}

// liveChurnSchedule builds the churn schedule for a live run: trace churn
// across the middle of the run, closed one TTL horizon plus one downtime
// before the end so the run itself proves self-healing, plus a flash crowd
// one third in.
func liveChurnSchedule(o Options, cfg LiveRunConfig, users int) sim.ChurnSchedule {
	churnFrom, churnTo := cfg.churnWindow()
	var schedule sim.ChurnSchedule
	if cfg.ChurnRate > 0 {
		perCycle := cfg.ChurnRate / float64(churnTo-churnFrom)
		schedule.Merge(sim.ChurnTrace(sim.ChurnTraceConfig{
			Seed:      o.Seed + 7717,
			Nodes:     users,
			From:      churnFrom,
			To:        churnTo,
			CrashRate: perCycle / 2,
			LeaveRate: perCycle / 2,
			Downtime:  cfg.Downtime,
		}))
	}
	if cfg.FlashCrowd > 0 {
		perCycle := (cfg.FlashCrowd + 4) / 5
		schedule.Merge(sim.FlashCrowd(int64(cfg.Cycles/3), news.NodeID(users), cfg.FlashCrowd, perCycle))
	}
	return schedule
}

// LiveRun executes the live-transport scenario on the deployment-sized
// survey subset (the paper's 245-user PlanetLab/ModelNet workload).
func LiveRun(o Options, cfg LiveRunConfig) (LiveRunResult, error) {
	o = o.WithDefaults()
	cfg = cfg.withDefaults()
	var network live.Network
	switch cfg.Transport {
	case "channel":
		network = live.NewChannelNet(o.Seed, cfg.LossRate, cfg.CycleLength/10)
	case "tcp":
		network = live.NewTCPNet(live.TCPNetConfig{
			SlowEvery: 4, SlowQueueCap: 96, QueueCap: 8192, BatchWindow: cfg.BatchWindow,
		})
	default:
		return LiveRunResult{}, fmt.Errorf("live: unknown transport %q (want channel or tcp)", cfg.Transport)
	}
	ds := dataset.Survey(dataset.SurveyConfig{Seed: o.Seed, Scale: o.Scale * 0.5, Cycles: cfg.Cycles})
	nodeCfg := core.Config{ProfileWindow: core.DefaultProfileWindow}
	if cfg.Fanout > 0 {
		nodeCfg.FLike = cfg.Fanout
	}

	liveCfg := live.Config{
		Seed: o.Seed, Cycles: cfg.Cycles, CycleLength: cfg.CycleLength, NodeConfig: nodeCfg,
	}
	if cfg.churned() {
		// Churn needs self-healing views: thread the eviction horizon into
		// every node's config, and the schedule into the runtime's
		// membership controller, which also registers the joiners' recall
		// denominators and the churn cohorts (sim.World.Register).
		liveCfg.NodeConfig.DescriptorTTL = cfg.DescriptorTTL
		liveCfg.DepartureNotices = cfg.DepartureNotices
		liveCfg.RefillWatermark = cfg.RefillWatermark
		liveCfg.Timeline = true
		liveCfg.Churn = liveChurnSchedule(o, cfg, ds.Users)
	}

	r := live.NewRunner(liveCfg, ds, network)
	col := r.Collector()
	r.Run()
	const cycleSeconds = 30 // deployment gossip period (Section V-D)
	res := LiveRunResult{
		Transport:   cfg.Transport,
		Users:       ds.Users,
		Cycles:      cfg.Cycles,
		Precision:   col.Precision(),
		Recall:      col.Recall(),
		F1:          col.F1(),
		Messages:    col.TotalMessages(),
		TotalBytes:  col.TotalBytes(),
		GossipBytes: col.GossipBytes(),
		BeepBytes:   col.Bytes(metrics.MsgBeep),
		TotalKbps:   metrics.KbpsPerNode(col.TotalBytes(), cfg.Cycles, cycleSeconds, ds.Users),
	}
	if cfg.churned() {
		res.Joiners = cfg.FlashCrowd
		res.Events = len(liveCfg.Churn.Events)
		res.FinalOnline = r.OnlineCount()
		res.Stable = col.CohortSummary(metrics.CohortStable)
		res.Joiner = col.CohortSummary(metrics.CohortJoiner)
		res.Rejoiner = col.CohortSummary(metrics.CohortRejoiner)
		res.Departed = col.CohortSummary(metrics.CohortDeparted)
		res.GhostEndFraction = r.GhostFraction()
		res.Timeline = r.Timeline()
		res.LastDeparture, res.HealedAt, res.TimeToHealed = healingFrom(liveCfg.Churn, res.Timeline)
	}
	return res, nil
}

// healingFrom derives the healing summary from a schedule and a per-cycle
// timeline: the last departure cycle, the first ghost-free sample at or
// after it that no later ghosts invalidate, and the gap between the two
// (-1 where undefined).
func healingFrom(schedule sim.ChurnSchedule, timeline []metrics.ChurnSample) (last, healedAt, timeTo int64) {
	last, healedAt, timeTo = -1, -1, -1
	for _, ev := range schedule.Events {
		if (ev.Kind == sim.ChurnLeave || ev.Kind == sim.ChurnCrash) && ev.Cycle > last {
			last = ev.Cycle
		}
	}
	for _, s := range timeline {
		if s.GhostFraction == 0 && s.Cycle >= last && healedAt < 0 && last >= 0 {
			healedAt = s.Cycle
		} else if s.GhostFraction > 0 {
			healedAt = -1
		}
	}
	if healedAt >= 0 && last >= 0 {
		timeTo = healedAt - last
	}
	return last, healedAt, timeTo
}

// String renders the run in the style of the paper's deployment tables.
func (r LiveRunResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live transport run: %s (%d users, %d cycles)\n", r.Transport, r.Users, r.Cycles)
	fmt.Fprintf(&b, "  precision %.3f  recall %.3f  F1 %.3f\n", r.Precision, r.Recall, r.F1)
	fmt.Fprintf(&b, "  messages %d  wire bytes %d (gossip %d, beep %d)\n",
		r.Messages, r.TotalBytes, r.GossipBytes, r.BeepBytes)
	fmt.Fprintf(&b, "  ≈ %.2f kbps per node at the deployment's 30 s cycle (Fig. 8b scale)",
		r.TotalKbps)
	if r.Events > 0 {
		fmt.Fprintf(&b, "\n  churn: %d events, +%d flash-crowd joiners, %d online at end, ghost-fraction(end)=%.4f\n",
			r.Events, r.Joiners, r.FinalOnline, r.GhostEndFraction)
		fmt.Fprintf(&b, "  healing: last-departure=%s healed-at=%s time-to-healed=%s\n",
			cycleOrNone(r.LastDeparture), cycleOrNone(r.HealedAt), cyclesOrNone(r.TimeToHealed))
		b.WriteString("  cohort     nodes  precision  recall  recall*  f1     deliveries/node\n")
		for _, s := range []metrics.CohortSummary{r.Stable, r.Joiner, r.Rejoiner, r.Departed} {
			if s.Nodes == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-9s  %-5d  %-9.3f  %-6.3f  %-7.3f  %-5.3f  %.1f\n",
				s.Cohort, s.Nodes, s.Precision(), s.Recall(), s.EligibleRecall(), s.F1(), s.Dissemination())
		}
		b.WriteString("  (* join-time-aware recall: items published after the node joined)")
	}
	return b.String()
}
