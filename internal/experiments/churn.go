package experiments

import (
	"fmt"
	"strings"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// This driver exercises the engine's lifecycle-aware membership layer on a
// paper workload: a flash crowd of cold-starting joiners, trace-style
// crashes with rejoins, and graceful leaves, with descriptor-TTL eviction
// keeping the surviving views free of ghosts. Quality metrics are split per
// churn cohort — the population that stayed up, the late joiners and the
// rejoiners — because a single population average hides exactly the
// dynamics a churning deployment cares about.

// ChurnConfig tunes the churn scenario.
type ChurnConfig struct {
	ChurnOptions
	EngineOptions
	// Dataset is the workload (nil = the survey trace at the run's options).
	Dataset *dataset.Dataset
	// Fanout is fLIKE (default 10).
	Fanout int
	// Loss is the uniform message-loss rate (Table VI), on top of churn.
	Loss float64
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	c.ChurnOptions = c.ChurnOptions.withDefaults(8)
	if c.Fanout <= 0 {
		c.Fanout = 10
	}
	return c
}

// churnWindow bounds the trace-churn cycles [from, to): opening cycles/open
// into the run and closing margin cycles before its end. A run too short for
// that clamps to a single cycle rather than an inverted range.
func churnWindow(cycles, open int, margin int64) (from, to int64) {
	from, to = int64(cycles/open), int64(cycles)-margin
	if to <= from {
		to = from + 1
	}
	return from, to
}

// schedule builds the one scenario every churn driver runs: over the window
// [from, to) a trace hits ChurnRate of the base population (half crashes
// that rejoin after Downtime, half graceful leaves), and a flash crowd of
// brand-new ids past the base population arrives a third into the run,
// flashPerCycle joiners a cycle.
func (c ChurnOptions) schedule(seed int64, peers, cycles int, from, to int64, flashPerCycle int) sim.ChurnSchedule {
	var s sim.ChurnSchedule
	if c.ChurnRate > 0 {
		perCycle := c.ChurnRate / float64(to-from)
		s = sim.ChurnTrace(sim.ChurnTraceConfig{
			Seed:      seed,
			Nodes:     peers,
			From:      from,
			To:        to,
			CrashRate: perCycle / 2,
			LeaveRate: perCycle / 2,
			Downtime:  c.Downtime,
		})
	}
	if c.FlashCrowd > 0 {
		s.Merge(sim.FlashCrowd(int64(cycles/3), news.NodeID(peers), c.FlashCrowd, flashPerCycle))
	}
	return s
}

// ChurnOutcome is what a churned run reports beyond its population quality,
// whichever runtime produced it: the schedule's size, the per-cohort
// node-level splits, the per-cycle fleet health and the healing summary.
type ChurnOutcome struct {
	Joiners     int
	Events      int // scheduled membership events
	FinalOnline int

	// Per-cohort node-level splits.
	Stable, Joiner, Rejoiner, Departed metrics.CohortSummary

	// Timeline holds one fleet-health sample per cycle: online population,
	// ghost fraction, mean view fill and the per-cohort online counts.
	Timeline []metrics.ChurnSample
	// LastDeparture is the cycle of the last leave/crash event; HealedAt is
	// the first cycle >= LastDeparture with a ghost-free view set (-1 if
	// never healed within the run). TimeToHealed is HealedAt-LastDeparture
	// (-1 when the run never healed).
	LastDeparture int64
	HealedAt      int64
	TimeToHealed  int64
}

// churnOutcome summarizes a finished churned run from its collector, its
// schedule and the health samples taken while it ran.
func churnOutcome(col *metrics.Collector, opts ChurnOptions, schedule sim.ChurnSchedule, online int, timeline []metrics.ChurnSample) ChurnOutcome {
	o := ChurnOutcome{
		Joiners:     opts.FlashCrowd,
		Events:      len(schedule.Events),
		FinalOnline: online,
		Stable:      col.CohortSummary(metrics.CohortStable),
		Joiner:      col.CohortSummary(metrics.CohortJoiner),
		Rejoiner:    col.CohortSummary(metrics.CohortRejoiner),
		Departed:    col.CohortSummary(metrics.CohortDeparted),
		Timeline:    timeline,
	}
	o.LastDeparture, o.HealedAt, o.TimeToHealed = healingFrom(schedule, timeline)
	return o
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

// writeCohorts renders the per-cohort quality table.
func (o ChurnOutcome) writeCohorts(b *strings.Builder) {
	b.WriteString("  cohort     nodes  precision  recall  recall*  f1     f1*    deliveries/node\n")
	for _, s := range []metrics.CohortSummary{o.Stable, o.Joiner, o.Rejoiner, o.Departed} {
		if s.Nodes == 0 {
			continue
		}
		fmt.Fprintf(b, "  %-9s  %-5d  %-9.3f  %-6.3f  %-7.3f  %-5.3f  %-5.3f  %.1f\n",
			s.Cohort, s.Nodes, s.Precision(), s.Recall(), s.EligibleRecall(), s.F1(), s.EligibleF1(), s.Dissemination())
	}
	b.WriteString("  (* join-time-aware: denominator counts only items published after the node joined)")
}

// healing renders the healing summary.
func (o ChurnOutcome) healing() string {
	return fmt.Sprintf("last-departure=%s healed-at=%s time-to-healed=%s",
		orNone("cycle %d", o.LastDeparture, "n/a"), orNone("cycle %d", o.HealedAt, "n/a"), orNone("%d cycles", o.TimeToHealed, "n/a"))
}

// ChurnResult summarizes a churn run of either world recipe: ChurnRun's
// dataset trace or ChurnBench's synthetic communities.
type ChurnResult struct {
	Dataset   string // the trace's name, or "communities"
	BaseUsers int
	Cycles    int
	// Quality is the whole-population headline (macro item metrics, as
	// elsewhere).
	metrics.Quality
	ChurnOutcome
	// GhostFraction[i] is the fraction of descriptors in online views that
	// point at a non-online member at the end of cycle i+1.
	GhostFraction []float64
}

// ChurnRun executes the churn scenario.
func ChurnRun(o Options, cfg ChurnConfig) ChurnResult {
	o = o.WithDefaults()
	cfg = cfg.withDefaults()
	ds := cfg.Dataset
	if ds == nil {
		ds = must(DatasetByName("survey", o))
	}
	cycles := ds.Cycles

	// The trace covers the middle half of the run; the crowd arrives within
	// five cycles whatever its size.
	w := sim.DatasetWorld(ds)
	from, to := churnWindow(cycles, 4, int64(cycles/4))
	w.Churn = cfg.schedule(o.Seed+7717, ds.Users, cycles, from, to, (cfg.FlashCrowd+4)/5)
	nodeCfg := core.Config{FLike: cfg.Fanout, ProfileWindow: core.DefaultProfileWindow}
	return runChurn(ds.Name, w, cfg.ChurnOptions, nodeCfg, cfg.engine(sim.Config{
		Seed: o.Seed, Cycles: cycles, LossRate: cfg.Loss,
	}))
}

// runChurn is the tail every churn driver shares once its world recipe has
// set the schedule: make every peer a WhatsUp node of the recipe's nodeCfg
// with self-healing views, assemble the engine with a per-cycle fleet-health
// timeline, run it, and summarize healing and per-cohort quality. cfg
// carries the recipe's seed, run length, loss and engine sizing; the
// eviction horizon and the churn-protocol switches come from opts.
func runChurn(name string, w *sim.World, opts ChurnOptions, nodeCfg core.Config, cfg sim.Config) ChurnResult {
	res := ChurnResult{Dataset: name, BaseUsers: w.Peers, Cycles: cfg.Cycles}
	var timeline []metrics.ChurnSample
	nodeCfg.DescriptorTTL = opts.DescriptorTTL
	w.NewPeer = func(id news.NodeID) sim.Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, nodeRNG(cfg.Seed, int(id)))
	}
	cfg.DepartureNotices = opts.DepartureNotices
	cfg.RefillWatermark = opts.RefillWatermark
	cfg.OnCycleEnd = func(e *sim.Engine, _ int64) {
		s := e.Health()
		res.GhostFraction = append(res.GhostFraction, s.GhostFraction)
		timeline = append(timeline, s)
	}
	e, col := w.NewEngine(cfg)
	e.Run()
	res.Quality = col.Quality()
	res.ChurnOutcome = churnOutcome(col, opts, w.Churn, e.OnlineCount(), timeline)
	return res
}

// ChurnBenchConfig sizes the churn bench, the churn scenario's second world
// recipe (`whatsup-bench -run churn`): instead of a paper trace, a synthetic
// 5k-peer 4-community world — the membership subsystem at scale, and the
// community shape behind the `churn-cycle-*` scenario of BenchmarkHotPath.
// ChurnRate zero means no trace churn (the flash crowd still arrives), so a
// churn-free control can be run, and FlashCrowd defaults to Peers/20 instead
// of none.
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
	w := sim.Communities(cfg.Peers, 4, 6, cfg.Cycles, "churn")

	// The churn window closes one eviction horizon plus one downtime before
	// the end, so the run itself proves self-healing: every crasher has
	// rejoined and every departed descriptor has aged out by the last cycle
	// (the end-state ghost fraction must come back 0).
	from, to := churnWindow(cfg.Cycles, 5, cfg.DescriptorTTL+cfg.Downtime)
	w.Churn = cfg.schedule(99, cfg.Peers, cfg.Cycles, from, to, cfg.FlashCrowd/5+1)

	nodeCfg := core.Config{FLike: 6, RPSViewSize: 20}
	return runChurn("communities", w, cfg.ChurnOptions, nodeCfg, cfg.engine(sim.Config{
		Seed: 1, Cycles: cfg.Cycles,
	}))
}

// String renders the churn scenario summary.
func (r ChurnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Churn scenario (%s, %d base users +%d flash-crowd joiners, %d cycles, %d events, %d online at end)\n",
		r.Dataset, r.BaseUsers, r.Joiners, r.Cycles, r.Events, r.FinalOnline)
	fmt.Fprintf(&b, "  population: precision %.3f  recall %.3f  f1 %.3f\n", r.Precision, r.Recall, r.F1)
	r.writeCohorts(&b)
	var end metrics.ChurnSample
	if n := len(r.Timeline); n > 0 {
		end = r.Timeline[n-1]
	}
	fmt.Fprintf(&b, "\n  views: ghost-fraction(end)=%.4f %s", end.GhostFraction, r.healing())
	fmt.Fprintf(&b, "\n  fill(end): rps=%.2f wup=%.2f", end.RPSFill, end.WUPFill)
	return b.String()
}

// orNone renders a cycle or a cycle count, or none when it is undefined (< 0).
func orNone(format string, c int64, none string) string {
	if c < 0 {
		return none
	}
	return fmt.Sprintf(format, c)
}
