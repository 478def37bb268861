package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// The churn bench measures the membership subsystem at scale: a 5k-peer
// 4-community world where 20% of the population churns (half crashes with
// rejoin, half graceful leaves) plus a flash crowd, with descriptor-TTL
// eviction active. `whatsup-bench -run churn` serializes the measurement
// into the BENCH_churn.json trajectory; the same world backs the
// `churn-cycle-*` scenario of the BenchmarkHotPath family, which the CI
// benchdiff gate pins by allocs/op.

// ChurnBenchConfig sizes the churn bench world. The churn-protocol knobs
// live in the embedded ChurnOptions, shared with ChurnRun and LiveRun;
// here ChurnRate zero means no trace churn (the flash crowd still
// arrives), so a churn-free baseline entry can be recorded — the CLI flag
// supplies the canonical 0.20 default — and FlashCrowd defaults to
// Peers/20 instead of none.
type ChurnBenchConfig struct {
	ChurnOptions
	EngineOptions
	// Peers is the base population (default 5000).
	Peers int
	// Cycles is the measured run length (default 45).
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

// churnBenchWorld builds the bench world: peers in 4 interest communities,
// a steady publication schedule, a churn trace across the middle of the run
// and a flash crowd a third in. Returns the engine, the schedule it was
// built with and the per-cycle fleet-health timeline it records.
func churnBenchWorld(cfg ChurnBenchConfig) (*sim.Engine, sim.ChurnSchedule, *[]metrics.ChurnSample) {
	ttl, downtime := cfg.DescriptorTTL, cfg.Downtime
	w := sim.Communities(cfg.Peers, 4, 6, cfg.Cycles, "churn")
	nodeCfg := core.Config{FLike: 6, RPSViewSize: 20, DescriptorTTL: ttl}
	w.NewPeer = func(id news.NodeID) sim.Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, nodeRNG(1, int(id)))
	}

	// The churn window closes one eviction horizon plus one downtime before
	// the end, so the run itself proves self-healing: every crasher has
	// rejoined and every departed descriptor has aged out by the last cycle
	// (GhostEndFrac must come back 0).
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

	timeline := &[]metrics.ChurnSample{}
	e, _ := w.NewEngine(cfg.engine(sim.Config{
		Seed: 1, Cycles: cfg.Cycles, BootstrapDegree: 5,
		DepartureNotices: cfg.DepartureNotices,
		RefillWatermark:  cfg.RefillWatermark,
		OnCycleEnd: func(e *sim.Engine, _ int64) {
			*timeline = append(*timeline, e.Health())
		},
	}))
	return e, w.Churn, timeline
}

// ChurnBenchResult is one BENCH_churn.json trajectory entry.
type ChurnBenchResult struct {
	Label      string  `json:"label,omitempty"`
	GoVersion  string  `json:"go"`
	MaxProcs   int     `json:"maxprocs"`
	Peers      int     `json:"peers"`
	FlashCrowd int     `json:"flash_crowd"`
	Cycles     int     `json:"cycles"`
	ChurnRate  float64 `json:"churn_rate"`
	Events     int     `json:"events"`
	// Churn protocol v2 knobs, recorded so trajectory entries with and
	// without departure notices / refill stay comparable.
	DepartureNotices bool    `json:"departure_notices,omitempty"`
	RefillWatermark  float64 `json:"refill_watermark,omitempty"`

	WallMs      float64 `json:"wall_ms"`      // full run wall-clock
	NsPerCycle  float64 `json:"ns_per_cycle"` // average cycle cost under churn
	FinalOnline int     `json:"final_online"`
	F1          float64 `json:"f1"`
	StableF1    float64 `json:"stable_f1"`
	JoinerF1    float64 `json:"joiner_f1"`
	// JoinerEligibleF1 is the flash crowd's join-time-aware F1: recall
	// counts only items published after the joiner arrived.
	JoinerEligibleF1 float64 `json:"joiner_eligible_f1"`
	RejoinerF1       float64 `json:"rejoiner_f1"`
	GhostEndFrac     float64 `json:"ghost_end_fraction"` // must be 0: views healed
	// Healing summary: the cycle of the last departure, the first
	// ghost-free cycle at or after it, and the gap between the two (-1
	// where undefined, e.g. a run that never healed).
	LastDeparture int64 `json:"last_departure"`
	HealedAt      int64 `json:"healed_at"`
	TimeToHealed  int64 `json:"time_to_healed"`
}

// ChurnBench runs the churn scenario once and returns the trajectory entry.
func ChurnBench(cfg ChurnBenchConfig) ChurnBenchResult {
	cfg = cfg.withDefaults()
	e, schedule, timeline := churnBenchWorld(cfg)
	start := time.Now()
	e.Run()
	wall := time.Since(start)
	col := e.Collector()

	last, healedAt, timeToHealed := healingFrom(schedule, *timeline)
	return ChurnBenchResult{
		GoVersion:        runtime.Version(),
		MaxProcs:         runtime.GOMAXPROCS(0),
		Peers:            cfg.Peers,
		FlashCrowd:       cfg.FlashCrowd,
		Cycles:           cfg.Cycles,
		ChurnRate:        cfg.ChurnRate,
		Events:           len(schedule.Events),
		DepartureNotices: cfg.DepartureNotices,
		RefillWatermark:  cfg.RefillWatermark,
		WallMs:           float64(wall.Nanoseconds()) / 1e6,
		NsPerCycle:       float64(wall.Nanoseconds()) / float64(cfg.Cycles),
		FinalOnline:      e.OnlineCount(),
		F1:               col.F1(),
		StableF1:         col.CohortSummary(metrics.CohortStable).F1(),
		JoinerF1:         col.CohortSummary(metrics.CohortJoiner).F1(),
		JoinerEligibleF1: col.CohortSummary(metrics.CohortJoiner).EligibleF1(),
		RejoinerF1:       col.CohortSummary(metrics.CohortRejoiner).F1(),
		GhostEndFrac:     e.Health().GhostFraction,
		LastDeparture:    last,
		HealedAt:         healedAt,
		TimeToHealed:     timeToHealed,
	}
}

// String renders the bench entry.
func (r ChurnBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Churn bench (%s, GOMAXPROCS=%d): %d peers +%d flash crowd, %d cycles, %.0f%% churn (%d events)\n",
		r.GoVersion, r.MaxProcs, r.Peers, r.FlashCrowd, r.Cycles, r.ChurnRate*100, r.Events)
	if r.DepartureNotices || r.RefillWatermark > 0 {
		fmt.Fprintf(&b, "  protocol: departure-notices=%v refill-watermark=%.2f\n", r.DepartureNotices, r.RefillWatermark)
	}
	fmt.Fprintf(&b, "  wall %.0f ms (%.1f ms/cycle)  online(end)=%d  ghost-fraction(end)=%.4f  time-to-healed=%s\n",
		r.WallMs, r.NsPerCycle/1e6, r.FinalOnline, r.GhostEndFrac, cyclesOrNone(r.TimeToHealed))
	fmt.Fprintf(&b, "  F1: population %.3f  stable %.3f  joiner %.3f (eligible %.3f)  rejoiner %.3f",
		r.F1, r.StableF1, r.JoinerF1, r.JoinerEligibleF1, r.RejoinerF1)
	return b.String()
}
