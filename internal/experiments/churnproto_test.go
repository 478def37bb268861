package experiments

import (
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/sim"
)

// TestDescriptorTTLDefaultUnified is the regression for the TTL-skew bugfix:
// every churn driver must derive the same eviction-horizon default from the
// shared core constant, so quality numbers from the runtimes stay comparable.
// Since the shared ChurnOptions extraction there is only one place that
// default can live, and this pins all three embeddings of it.
func TestDescriptorTTLDefaultUnified(t *testing.T) {
	churn := ChurnConfig{}.withDefaults().DescriptorTTL
	live := LiveRunConfig{}.withDefaults().DescriptorTTL
	bench := ChurnBenchConfig{}.withDefaults().DescriptorTTL
	if churn != core.DefaultDescriptorTTL || live != core.DefaultDescriptorTTL || bench != core.DefaultDescriptorTTL {
		t.Fatalf("TTL defaults diverged: ChurnRun=%d LiveRun=%d ChurnBench=%d, all must be core.DefaultDescriptorTTL=%d",
			churn, live, bench, core.DefaultDescriptorTTL)
	}
	// An explicit TTL must survive untouched in both.
	if got := (ChurnConfig{ChurnOptions: ChurnOptions{DescriptorTTL: 9}}).withDefaults().DescriptorTTL; got != 9 {
		t.Fatalf("explicit sim TTL overridden to %d", got)
	}
	if got := (LiveRunConfig{ChurnOptions: ChurnOptions{DescriptorTTL: 9}}).withDefaults().DescriptorTTL; got != 9 {
		t.Fatalf("explicit live TTL overridden to %d", got)
	}
}

// TestChurnOptionsDriverDefaults pins the behavior each CLI relied on before
// the churn knobs were extracted into the shared ChurnOptions: the per-driver
// downtime defaults (sim 8, live 5, bench 6 — the bench's was a constant
// before), the bench's population-derived flash crowd, and negative churn
// rates clamping to a static fleet. Explicit values always win.
func TestChurnOptionsDriverDefaults(t *testing.T) {
	if got := (ChurnConfig{}).withDefaults().Downtime; got != 8 {
		t.Fatalf("ChurnRun downtime default changed: %d, want 8", got)
	}
	if got := (LiveRunConfig{}).withDefaults().Downtime; got != 5 {
		t.Fatalf("LiveRun downtime default changed: %d, want 5", got)
	}
	bench := ChurnBenchConfig{}.withDefaults()
	if bench.Downtime != 6 {
		t.Fatalf("ChurnBench downtime default changed: %d, want 6", bench.Downtime)
	}
	if bench.FlashCrowd != bench.Peers/20 {
		t.Fatalf("ChurnBench flash crowd default changed: %d, want Peers/20=%d",
			bench.FlashCrowd, bench.Peers/20)
	}
	if got := (ChurnOptions{ChurnRate: -1}).withDefaults(8).ChurnRate; got != 0 {
		t.Fatalf("negative churn rate must clamp to 0, got %v", got)
	}
	explicit := ChurnOptions{ChurnRate: 0.4, FlashCrowd: 3, Downtime: 2, DescriptorTTL: 9,
		DepartureNotices: true, RefillWatermark: 0.5}
	if got := explicit.withDefaults(8); got != explicit {
		t.Fatalf("explicit options rewritten by defaults: %+v -> %+v", explicit, got)
	}
}

// TestLiveChurnWindowClosure is the regression for the hard-coded-slack
// bugfix: for every run length the churn window must close at least one
// eviction horizon plus one downtime plus the scheduler slack before the run
// ends (unless the run is too short for any window at all, where it clamps
// to a single cycle), and the slack must be derived, never the old magic 3
// disguised as a constant for long runs.
func TestLiveChurnWindowClosure(t *testing.T) {
	for _, cycles := range []int{40, 64, 120, 400} {
		cfg := LiveRunConfig{Cycles: cycles}.withDefaults()
		from, to := cfg.churnWindow()
		if from != int64(cycles/4) {
			t.Fatalf("cycles=%d: window opens at %d, want %d", cycles, from, cycles/4)
		}
		latest := int64(cfg.Cycles) - cfg.DescriptorTTL - cfg.Downtime - cfg.schedulerSlack()
		if to > latest {
			t.Fatalf("cycles=%d: window closes at %d, later than TTL+downtime+slack bound %d",
				cycles, to, latest)
		}
		if to <= from {
			t.Fatalf("cycles=%d: window [%d,%d) is empty", cycles, from, to)
		}
		if slack := cfg.schedulerSlack(); slack < 3 {
			t.Fatalf("cycles=%d: derived slack %d below the historical floor of 3", cycles, slack)
		}
	}
	// Longer runs must get proportionally more slack (the old constant 3 did
	// not scale with run length, which is what the fix addresses).
	short := LiveRunConfig{Cycles: 40}.withDefaults()
	long := LiveRunConfig{Cycles: 400}.withDefaults()
	if long.schedulerSlack() <= short.schedulerSlack() {
		t.Fatalf("slack must grow with run length: %d cycles -> %d, %d cycles -> %d",
			short.Cycles, short.schedulerSlack(), long.Cycles, long.schedulerSlack())
	}
	// A run too short for any window clamps to one cycle rather than
	// producing an inverted range.
	tiny := LiveRunConfig{Cycles: 12}.withDefaults()
	if from, to := tiny.churnWindow(); to != from+1 {
		t.Fatalf("short run must clamp to a single-cycle window, got [%d,%d)", from, to)
	}
}

// TestChurnRunTimelineAndHealing exercises the sim timeline end to end on a
// tiny workload: one sample per cycle, ghost fractions mirrored between the
// legacy slice and the timeline, and the healing summary consistent.
func TestChurnRunTimelineAndHealing(t *testing.T) {
	r := ChurnRun(tiny(), ChurnConfig{
		ChurnOptions: ChurnOptions{ChurnRate: 0.2, FlashCrowd: 6,
			DepartureNotices: true, RefillWatermark: 0.5},
		EngineOptions: EngineOptions{Workers: 2},
	})
	if len(r.Timeline) != r.Cycles {
		t.Fatalf("timeline has %d samples, want one per cycle (%d)", len(r.Timeline), r.Cycles)
	}
	for i, s := range r.Timeline {
		if s.GhostFraction != r.GhostFraction[i] {
			t.Fatalf("cycle %d: timeline ghost %v != legacy slice %v", s.Cycle, s.GhostFraction, r.GhostFraction[i])
		}
		if s.RPSFill < 0 || s.RPSFill > 1 || s.WUPFill < 0 || s.WUPFill > 1 {
			t.Fatalf("cycle %d: fills out of range: %+v", s.Cycle, s)
		}
		online := 0
		for _, c := range s.OnlineByCohort {
			online += c
		}
		if online != s.Online {
			t.Fatalf("cycle %d: cohort counts sum to %d, online is %d", s.Cycle, online, s.Online)
		}
	}
	if r.HealedAt >= 0 {
		if r.TimeToHealed != r.HealedAt-r.LastDeparture {
			t.Fatalf("TimeToHealed=%d, want HealedAt-LastDeparture=%d", r.TimeToHealed, r.HealedAt-r.LastDeparture)
		}
	} else if r.TimeToHealed != -1 {
		t.Fatalf("unhealed run must report TimeToHealed=-1, got %d", r.TimeToHealed)
	}
	if r.Stable.Nodes == 0 {
		t.Fatal("cohort splits missing")
	}
}

// TestChurnBenchHealsAndSplitsJoiners runs a miniature churn bench: the
// joiner eligible-F1 is populated alongside the whole-trace figure, the
// healing summary is internally consistent, and the bench world — whose
// churn window closes one eviction horizon plus one downtime before the end
// — is ghost-free at the last cycle.
func TestChurnBenchHealsAndSplitsJoiners(t *testing.T) {
	r := ChurnBench(ChurnBenchConfig{
		ChurnOptions: ChurnOptions{ChurnRate: 0.2, FlashCrowd: 12,
			DepartureNotices: true, RefillWatermark: 0.5},
		Peers: 150, Cycles: 30, EngineOptions: EngineOptions{Workers: 2},
	})
	if r.BaseUsers != 150 || r.Joiners != 12 || r.Joiner.Nodes != 12 {
		t.Fatalf("world sizes not reported: %d base, %d joiners, %d in the joiner cohort", r.BaseUsers, r.Joiners, r.Joiner.Nodes)
	}
	if r.Joiner.F1() > 0 && r.Joiner.EligibleF1() < r.Joiner.F1() {
		t.Fatalf("eligible F1 %v below whole-trace F1 %v: the join-time denominator can only shrink",
			r.Joiner.EligibleF1(), r.Joiner.F1())
	}
	if r.LastDeparture < 0 {
		t.Fatal("a churned bench must record a last departure")
	}
	if r.HealedAt >= 0 && r.TimeToHealed != r.HealedAt-r.LastDeparture {
		t.Fatalf("TimeToHealed=%d inconsistent with HealedAt=%d LastDeparture=%d",
			r.TimeToHealed, r.HealedAt, r.LastDeparture)
	}
	if end := r.GhostFraction[len(r.GhostFraction)-1]; end != 0 {
		t.Fatalf("bench world must self-heal by the end, ghost fraction %v", end)
	}
}

// TestHealingFrom holds the healing summary to its definition: the last
// leave or crash, the first ghost-free sample at or after it that no later
// ghosts invalidate, and the gap between the two.
func TestHealingFrom(t *testing.T) {
	departures := sim.ChurnSchedule{}
	departures.Add(2, sim.ChurnJoin, 9).Add(3, sim.ChurnCrash, 1).Add(5, sim.ChurnLeave, 2).Add(8, sim.ChurnRejoin, 1)
	joinsOnly := sim.ChurnSchedule{}
	joinsOnly.Add(4, sim.ChurnJoin, 9)
	timeline := func(ghosts ...float64) []metrics.ChurnSample {
		out := make([]metrics.ChurnSample, len(ghosts))
		for i, g := range ghosts {
			out[i] = metrics.ChurnSample{Cycle: int64(i + 1), GhostFraction: g}
		}
		return out
	}
	for _, tc := range []struct {
		name                   string
		schedule               sim.ChurnSchedule
		ghosts                 []float64 // sample i is the end of cycle i+1
		last, healedAt, timeTo int64
	}{
		{"no departures", joinsOnly, []float64{0, 0, 0}, -1, -1, -1},
		{"never healed", departures, []float64{0, 0, .1, .1, .2, .2, .1, .1}, 5, -1, -1},
		{"healed at the last departure", departures, []float64{0, 0, .1, .1, 0, 0, 0}, 5, 5, 0},
		{"re-ghosted then healed", departures, []float64{0, 0, .1, .1, .1, 0, .1, 0, 0}, 5, 8, 3},
		{"ghost-free before the last departure does not count", departures, []float64{0, 0, 0, 0, .1, .1, 0}, 5, 7, 2},
		{"no samples", departures, nil, 5, -1, -1},
	} {
		last, healedAt, timeTo := healingFrom(tc.schedule, timeline(tc.ghosts...))
		if last != tc.last || healedAt != tc.healedAt || timeTo != tc.timeTo {
			t.Errorf("%s: last=%d healed-at=%d time-to=%d, want %d %d %d",
				tc.name, last, healedAt, timeTo, tc.last, tc.healedAt, tc.timeTo)
		}
	}
}
