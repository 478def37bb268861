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

// ChurnConfig tunes the churn scenario. The churn-protocol knobs
// (rate, flash crowd, downtime, eviction horizon, departure notices,
// refill) live in the embedded ChurnOptions, shared with the live
// scenario and the churn bench.
type ChurnConfig struct {
	ChurnOptions
	EngineOptions
	// Dataset is the workload (nil = the survey trace at the run's options).
	Dataset *dataset.Dataset
	// Fanout is fLIKE (default 10).
	Fanout int
	// Cycles overrides the run length (0 = dataset default).
	Cycles int
	// FlashPerCycle spreads the flash crowd over several cycles
	// (0 = ceil(FlashCrowd/5), so every crowd arrives within 5 cycles).
	FlashPerCycle int
	// TTL is the dislike TTL, with the RunConfig convention: 0 = paper
	// default (4), negative = explicit 0.
	TTL int
	// Loss is the uniform message-loss rate (Table VI), on top of churn.
	Loss float64
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	c.ChurnOptions = c.ChurnOptions.withDefaults(8)
	if c.Fanout <= 0 {
		c.Fanout = 10
	}
	if c.FlashPerCycle <= 0 {
		c.FlashPerCycle = (c.FlashCrowd + 4) / 5
	}
	return c
}

// ChurnResult summarizes a churn run of either world recipe: ChurnRun's
// dataset trace or ChurnBench's synthetic communities.
type ChurnResult struct {
	Dataset     string // the trace's name, or "communities"
	BaseUsers   int
	Joiners     int
	Cycles      int
	Events      int // scheduled membership events
	FinalOnline int

	// Whole-population quality (macro item metrics, as elsewhere).
	Precision, Recall, F1 float64

	// Per-cohort node-level splits.
	Stable, Joiner, Rejoiner, Departed metrics.CohortSummary

	// GhostFraction[i] is the fraction of descriptors in online views that
	// point at a non-online member at the end of cycle i+1.
	GhostFraction []float64
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

// ChurnRun executes the churn scenario.
func ChurnRun(o Options, cfg ChurnConfig) ChurnResult {
	o = o.WithDefaults()
	cfg = cfg.withDefaults()
	ds := cfg.Dataset
	if ds == nil {
		ds = must(DatasetByName("survey", o))
	}
	cycles := cfg.Cycles
	if cycles == 0 {
		cycles = ds.Cycles
	}

	// Schedule: trace churn over the base population across the middle of
	// the run, plus a flash crowd a third in.
	w := sim.DatasetWorld(ds)
	churnFrom, churnTo := int64(cycles/4), int64(cycles-cycles/4)
	if cfg.ChurnRate > 0 && churnTo > churnFrom {
		perCycle := cfg.ChurnRate / float64(churnTo-churnFrom)
		w.Churn.Merge(sim.ChurnTrace(sim.ChurnTraceConfig{
			Seed:      o.Seed + 7717,
			Nodes:     ds.Users,
			From:      churnFrom,
			To:        churnTo,
			CrashRate: perCycle / 2,
			LeaveRate: perCycle / 2,
			Downtime:  cfg.Downtime,
		}))
	}
	if cfg.FlashCrowd > 0 {
		w.Churn.Merge(sim.FlashCrowd(int64(cycles/3), news.NodeID(ds.Users), cfg.FlashCrowd, cfg.FlashPerCycle))
	}
	nodeCfg := core.Config{
		FLike:         cfg.Fanout,
		DislikeTTL:    cfg.TTL,
		ProfileWindow: core.DefaultProfileWindow,
		DescriptorTTL: cfg.DescriptorTTL,
	}
	w.NewPeer = func(id news.NodeID) sim.Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, nodeRNG(o.Seed, int(id)))
	}

	return runChurn(ds.Name, w, cfg.ChurnOptions, cfg.engine(sim.Config{
		Seed:     o.Seed,
		Cycles:   cycles,
		LossRate: cfg.Loss,
	}))
}

// runChurn is the tail every churn driver shares once its world recipe has
// set the schedule and the peer factory: assemble the engine with a
// per-cycle fleet-health timeline, run it, and summarize healing and
// per-cohort quality. cfg carries the recipe's seed, run length, loss and
// engine sizing; the churn-protocol switches come from opts.
func runChurn(name string, w *sim.World, opts ChurnOptions, cfg sim.Config) ChurnResult {
	res := ChurnResult{
		Dataset:   name,
		BaseUsers: w.Peers,
		Joiners:   opts.FlashCrowd,
		Cycles:    cfg.Cycles,
		Events:    len(w.Churn.Events),
	}
	cfg.DepartureNotices = opts.DepartureNotices
	cfg.RefillWatermark = opts.RefillWatermark
	cfg.OnCycleEnd = func(e *sim.Engine, _ int64) {
		s := e.Health()
		res.GhostFraction = append(res.GhostFraction, s.GhostFraction)
		res.Timeline = append(res.Timeline, s)
	}
	e, col := w.NewEngine(cfg)
	e.Run()

	res.FinalOnline = e.OnlineCount()
	res.LastDeparture, res.HealedAt, res.TimeToHealed = healingFrom(w.Churn, res.Timeline)
	res.Precision, res.Recall, res.F1 = col.Precision(), col.Recall(), col.F1()
	res.Stable = col.CohortSummary(metrics.CohortStable)
	res.Joiner = col.CohortSummary(metrics.CohortJoiner)
	res.Rejoiner = col.CohortSummary(metrics.CohortRejoiner)
	res.Departed = col.CohortSummary(metrics.CohortDeparted)
	return res
}

// String renders the churn scenario summary.
func (r ChurnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Churn scenario (%s, %d base users +%d flash-crowd joiners, %d cycles, %d events, %d online at end)\n",
		r.Dataset, r.BaseUsers, r.Joiners, r.Cycles, r.Events, r.FinalOnline)
	fmt.Fprintf(&b, "  population: precision %.3f  recall %.3f  f1 %.3f\n", r.Precision, r.Recall, r.F1)
	b.WriteString("  cohort     nodes  precision  recall  recall*  f1     f1*    deliveries/node\n")
	for _, s := range []metrics.CohortSummary{r.Stable, r.Joiner, r.Rejoiner, r.Departed} {
		if s.Nodes == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s  %-5d  %-9.3f  %-6.3f  %-7.3f  %-5.3f  %-5.3f  %.1f\n",
			s.Cohort, s.Nodes, s.Precision(), s.Recall(), s.EligibleRecall(), s.F1(), s.EligibleF1(), s.Dissemination())
	}
	b.WriteString("  (* join-time-aware: denominator counts only items published after the node joined)\n")
	last := 0.0
	if len(r.GhostFraction) > 0 {
		last = r.GhostFraction[len(r.GhostFraction)-1]
	}
	fmt.Fprintf(&b, "  views: ghost-fraction(end)=%.4f last-departure=%s healed-at=%s time-to-healed=%s",
		last, cycleOrNone(r.LastDeparture), cycleOrNone(r.HealedAt), cyclesOrNone(r.TimeToHealed))
	if n := len(r.Timeline); n > 0 {
		end := r.Timeline[n-1]
		fmt.Fprintf(&b, "\n  fill(end): rps=%.2f wup=%.2f", end.RPSFill, end.WUPFill)
	}
	return b.String()
}

func cycleOrNone(c int64) string {
	if c < 0 {
		return "n/a"
	}
	return fmt.Sprintf("cycle %d", c)
}

func cyclesOrNone(c int64) string {
	if c < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d cycles", c)
}
