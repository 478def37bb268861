package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"whatsup/internal/sim"
)

// tiny returns fast options for tests: small scale, fixed seed.
func tiny() Options { return Options{Seed: 3, Scale: 0.08, Workers: 2} }

func TestTable1(t *testing.T) {
	r := Table1(tiny())
	if len(r.Rows) != 3 {
		t.Fatalf("rows=%d want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Users == 0 || row.News == 0 {
			t.Fatalf("empty workload row: %+v", row)
		}
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	r := Table3(tiny())
	if len(r.Rows) != 5 {
		t.Fatalf("rows=%d want 5", len(r.Rows))
	}
	row := func(alg string) *Point { return find(r.Rows, func(p Point) bool { return p.Name() == alg }) }
	gossip := row("Gossip")
	whatsup := row("WhatsUp")
	cfwup := row("CF-Wup")
	if gossip == nil || whatsup == nil || cfwup == nil {
		t.Fatal("missing rows")
	}
	// Homogeneous gossip floods: highest recall, low precision.
	if gossip.Recall < whatsup.Recall-0.05 {
		t.Fatalf("gossip recall %v must be at least WhatsUp's %v", gossip.Recall, whatsup.Recall)
	}
	if gossip.Precision > whatsup.Precision {
		t.Fatalf("gossip precision %v must not beat WhatsUp %v", gossip.Precision, whatsup.Precision)
	}
	// WhatsUp's headline: competitive F1 at the lowest message budget among
	// the similarity-driven competitors (gossip at f=4 can be cheaper at
	// tiny test scales; at paper scale it costs ~2× WhatsUp).
	for _, name := range []string{"CF-Cos", "CF-Wup", "WhatsUp-Cos"} {
		other := row(name)
		if whatsup.MsgsPerUser() > other.MsgsPerUser() {
			t.Fatalf("WhatsUp (%0.f msgs/user) must be cheapest, %s costs %0.f",
				whatsup.MsgsPerUser(), name, other.MsgsPerUser())
		}
	}
}

func TestTable4DislikePathContributes(t *testing.T) {
	r := Table4(tiny())
	if len(r.Fractions) != 5 {
		t.Fatalf("fractions=%d want 5", len(r.Fractions))
	}
	if r.Fractions[0] < 0.3 {
		t.Fatalf("most liked deliveries arrive without dislike forwards, got %v", r.Fractions[0])
	}
	if r.ViaDislikeShare() <= 0 {
		t.Fatal("the dislike path must contribute some deliveries")
	}
}

func TestTable5Shapes(t *testing.T) {
	r := Table5(tiny())
	row := func(dataset, approach string) *Point {
		return find(r.Rows, func(p Point) bool { return p.Dataset.Name == dataset && p.Name() == approach })
	}
	pubsub := row("survey", "C-Pub/Sub")
	wuSurvey := row("survey", "WhatsUp")
	cascade := row("digg", "Cascade")
	wuDigg := row("digg", "WhatsUp")
	if pubsub == nil || wuSurvey == nil || cascade == nil || wuDigg == nil {
		t.Fatal("missing Table V rows")
	}
	if pubsub.Recall < 0.999 {
		t.Fatalf("C-Pub/Sub recall must be 1, got %v", pubsub.Recall)
	}
	if pubsub.Messages >= wuSurvey.Messages {
		t.Fatal("C-Pub/Sub must be cheaper than WhatsUp")
	}
	if cascade.Recall >= wuDigg.Recall {
		t.Fatalf("cascade recall %v must trail WhatsUp %v", cascade.Recall, wuDigg.Recall)
	}
}

func TestTable6LossShape(t *testing.T) {
	r := Table6(tiny())
	if len(r.Cells) != len(Table6LossRates)*len(Table6Fanouts) {
		t.Fatalf("cells=%d", len(r.Cells))
	}
	cell := func(loss float64, fanout int) *Point {
		return find(r.Cells, func(p Point) bool { return p.Loss == loss && p.Fanout == fanout })
	}
	clean6 := cell(0, 6)
	mid6 := cell(0.20, 6)
	heavy6 := cell(0.50, 6)
	if clean6 == nil || mid6 == nil || heavy6 == nil {
		t.Fatal("missing cells")
	}
	// Robustness headline: 20% loss barely moves F1 at fanout 6; 50% hurts.
	if mid6.F1 < clean6.F1-0.15 {
		t.Fatalf("20%% loss should be mostly absorbed: clean=%v lossy=%v", clean6.F1, mid6.F1)
	}
	if heavy6.F1 >= clean6.F1 {
		t.Fatalf("50%% loss must hurt: clean=%v heavy=%v", clean6.F1, heavy6.F1)
	}
}

func TestFig3SeriesComplete(t *testing.T) {
	r := Fig3("survey", tiny())
	if len(r.Series) != 4 {
		t.Fatalf("series=%d want 4", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) != len(fig3Fanouts("survey")) {
			t.Fatalf("%s has %d points", s.Name, len(s.Points))
		}
		if Best(s.Points).F1 == 0 {
			t.Fatalf("%s never scores", s.Name)
		}
	}
}

func TestFig4LSCCGrowsWithFanout(t *testing.T) {
	r := Fig4(tiny())
	for _, s := range r.Series {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.LSCC < first.LSCC-0.1 {
			t.Fatalf("%s connectivity should not shrink with fanout: %v -> %v", s.Name, first.LSCC, last.LSCC)
		}
	}
}

func TestFig5TTLRecallMonotoneish(t *testing.T) {
	r := Fig5(tiny())
	if len(r.Points) != len(Fig5TTLs) {
		t.Fatalf("points=%d", len(r.Points))
	}
	ttl0, ttl4 := r.Points[0], r.Points[3]
	if ttl4.Recall < ttl0.Recall-0.02 {
		t.Fatalf("recall with TTL4 (%v) must not trail TTL0 (%v)", ttl4.Recall, ttl0.Recall)
	}
}

func TestFig6BellShape(t *testing.T) {
	r := Fig6(tiny())
	if r.MeanInfectionHops <= 0 {
		t.Fatal("mean infection hops must be positive")
	}
	if len(r.InfectionByLike) == 0 {
		t.Fatal("no like infections recorded")
	}
	if r.MaxHop() == 0 {
		t.Fatal("dissemination must travel beyond the source")
	}
}

func TestFig7JoinerConverges(t *testing.T) {
	o := tiny()
	r := fig7(o, fig7Shape{trials: 1, eventCycle: 15, totalCycles: 40, window: 10})
	if r.WhatsUp.JoinConvergence < 0 {
		t.Fatal("joiner must converge under the WUP metric in the test horizon")
	}
	if len(r.WhatsUp.RefSim) != 40 || len(r.Cosine.RefSim) != 40 {
		t.Fatal("per-cycle samples missing")
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestFig8SimulationOnly(t *testing.T) {
	o := tiny()
	r := fig8(o, fig8Shape{fanouts: []int{3, 6}, cycles: 20}, true)
	if len(r.Points) != 2 {
		t.Fatalf("points=%d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.TotalKbps <= 0 {
			t.Fatalf("bandwidth must be accounted: %+v", p)
		}
		if p.BEEPKbps+p.WUPKbps != p.TotalKbps {
			t.Fatal("bandwidth decomposition must sum")
		}
	}
	if r.Points[1].TotalKbps <= r.Points[0].TotalKbps {
		t.Fatal("bandwidth must grow with fanout")
	}
}

func TestFig8WithLiveRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs in -short mode")
	}
	o := tiny()
	r := fig8(o, fig8Shape{fanouts: []int{4}, cycles: 15, cycleLength: 3 * time.Millisecond}, false)
	p := r.Points[0]
	if p.ModelNet == 0 && p.PlanetLab == 0 {
		t.Fatal("live runs must deliver something")
	}
}

func TestLiveRunChannelTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs in -short mode")
	}
	r, err := LiveRun(tiny(), LiveRunConfig{
		Transport: "channel", Cycles: 20, CycleLength: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages == 0 || r.TotalBytes == 0 {
		t.Fatalf("traffic must be measured: %+v", r)
	}
	if r.TotalBytes != r.GossipBytes+r.BeepBytes {
		t.Fatal("wire byte decomposition must sum")
	}
	if r.TotalKbps <= 0 {
		t.Fatal("bandwidth must be derived from wire bytes")
	}
	for _, want := range []string{"channel", "kbps", "wire bytes"} {
		if !strings.Contains(r.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, r)
		}
	}
}

func TestLiveRunTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs in -short mode")
	}
	r, err := LiveRun(tiny(), LiveRunConfig{
		Transport: "tcp", Cycles: 20, CycleLength: 6 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages == 0 || r.TotalBytes == 0 {
		t.Fatalf("traffic must be measured: %+v", r)
	}
}

func TestLiveRunLosslessChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs in -short mode")
	}
	// A negative LossRate must run lossless instead of falling back to the
	// 2% default.
	r, err := LiveRun(tiny(), LiveRunConfig{
		Transport: "channel", LossRate: -1, Cycles: 15, CycleLength: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages == 0 {
		t.Fatal("lossless run must still gossip")
	}
}

func TestLiveRunRejectsUnknownTransport(t *testing.T) {
	if _, err := LiveRun(tiny(), LiveRunConfig{Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown transport must error")
	}
}

// waitLiveGoroutines polls the goroutine count back to the pre-run baseline;
// the live churn machinery must not leak node, pump or writer goroutines.
func waitLiveGoroutines(t *testing.T, base int) {
	t.Helper()
	for start := time.Now(); time.Since(start) < 5*time.Second; {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked by the live run: %d > base %d", runtime.NumGoroutine(), base)
}

// liveChurnAsserts are the acceptance checks shared by both transports: the
// run completes with per-cohort metrics, membership arithmetic holds, and
// the end-of-run ghost-descriptor fraction is 0 (the schedule leaves one
// eviction horizon plus slack after the last departure).
func liveChurnAsserts(t *testing.T, r LiveRunResult, flash int) {
	t.Helper()
	if r.Events < flash {
		t.Fatalf("schedule produced %d events, want >= %d joins", r.Events, flash)
	}
	if r.Joiner.Nodes != flash {
		t.Fatalf("joiner cohort has %d nodes, want %d", r.Joiner.Nodes, flash)
	}
	if r.FinalOnline <= 0 || r.FinalOnline > r.Users+flash {
		t.Fatalf("implausible online count %d of %d+%d", r.FinalOnline, r.Users, flash)
	}
	if r.Stable.Nodes == 0 || r.Stable.Received == 0 {
		t.Fatalf("stable cohort broken: %+v", r.Stable)
	}
	if r.Joiner.EligibleInterested <= 0 || r.Joiner.EligibleInterested >= r.Joiner.Interested {
		t.Fatalf("join-aware denominator must shrink: eligible %d vs %d",
			r.Joiner.EligibleInterested, r.Joiner.Interested)
	}
	if r.Joiner.EligibleRecall() < r.Joiner.Recall() {
		t.Fatal("join-aware recall cannot be below the conservative figure")
	}
	if r.GhostEndFraction != 0 {
		t.Fatalf("online views not ghost-free at end: %v", r.GhostEndFraction)
	}
}

func TestLiveRunChurnChannelTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs in -short mode")
	}
	base := runtime.NumGoroutine()
	const flash = 6
	r, err := LiveRun(tiny(), LiveRunConfig{
		Transport: "channel", Cycles: 40, CycleLength: 4 * time.Millisecond,
		ChurnOptions: ChurnOptions{ChurnRate: 0.3, FlashCrowd: flash, DescriptorTTL: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	liveChurnAsserts(t, r, flash)
	if r.Joiner.Received == 0 {
		t.Fatal("flash-crowd joiners never received a post-join item")
	}
	for _, want := range []string{"churn:", "joiner", "recall*", "ghost-fraction(end)"} {
		if !strings.Contains(r.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, r)
		}
	}
	waitLiveGoroutines(t, base)
}

func TestLiveRunChurnTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("live runs in -short mode")
	}
	base := runtime.NumGoroutine()
	const flash = 4
	r, err := LiveRun(tiny(), LiveRunConfig{
		Transport: "tcp", Cycles: 40, CycleLength: 7 * time.Millisecond,
		ChurnOptions: ChurnOptions{ChurnRate: 0.25, FlashCrowd: flash, DescriptorTTL: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	liveChurnAsserts(t, r, flash)
	if r.Messages == 0 || r.TotalBytes == 0 {
		t.Fatalf("traffic must be measured: %+v", r)
	}
	waitLiveGoroutines(t, base)
}

func TestFig9CentralizedUpperBound(t *testing.T) {
	r := Fig9(tiny())
	if len(r.Series) != 3 {
		t.Fatalf("series=%d", len(r.Series))
	}
	central := r.Series[0]
	if central.Name != "Centralized" {
		t.Fatal("first series must be the centralized variant")
	}
	if Best(central.Points).F1 == 0 {
		t.Fatal("centralized must score")
	}
}

func TestFig10PopularityBuckets(t *testing.T) {
	r := Fig10(tiny())
	nonEmpty := 0
	for _, b := range r.WhatsUp {
		if b.Count > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("popularity buckets all empty")
	}
}

func TestFig11SociabilityTrend(t *testing.T) {
	r := Fig11(tiny())
	if len(r.Buckets) == 0 {
		t.Fatal("no sociability buckets")
	}
	if r.Correlation <= -0.5 {
		t.Fatalf("sociability correlation strongly negative: %v", r.Correlation)
	}
}

func TestAblations(t *testing.T) {
	rs := Ablations(tiny())
	if len(rs) != 3 {
		t.Fatalf("%d ablations, want 3", len(rs))
	}
	for _, r := range rs {
		if len(r.Points) < 3 {
			t.Fatalf("%s: too few points", r.Name)
		}
		for _, p := range r.Points {
			if p.F1 == 0 {
				t.Fatalf("%s %s: zero F1", r.Name, p.Label)
			}
		}
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	o := tiny()
	ds := must(DatasetByName("survey", o))
	a := Run(RunConfig{Dataset: ds, Alg: WhatsUp, Fanout: 6, Seed: 5})
	b := Run(RunConfig{Dataset: ds, Alg: WhatsUp, Fanout: 6, Seed: 5})
	if a.Col.F1() != b.Col.F1() || a.Col.TotalMessages() != b.Col.TotalMessages() {
		t.Fatal("identical configs must reproduce identical outcomes")
	}
}

func TestChurnRunCohortsAndHealing(t *testing.T) {
	r := ChurnRun(tiny(), ChurnConfig{
		ChurnOptions: ChurnOptions{FlashCrowd: 10, ChurnRate: 0.25},
		Fanout:       6,
	})
	if r.Events == 0 {
		t.Fatal("churn scenario produced no membership events")
	}
	if r.Joiner.Nodes == 0 {
		t.Fatal("flash-crowd joiners missing from the joiner cohort")
	}
	if r.Stable.Nodes == 0 {
		t.Fatal("stable cohort empty")
	}
	if r.Stable.Received == 0 {
		t.Fatal("stable peers received nothing; the run is broken")
	}
	if r.Joiner.Received == 0 {
		t.Fatal("joiners never received an item after cold start")
	}
	if r.FinalOnline <= 0 || r.FinalOnline > r.BaseUsers+r.Joiners {
		t.Fatalf("implausible online count %d", r.FinalOnline)
	}
	if len(r.GhostFraction) != r.Cycles {
		t.Fatalf("ghost fraction sampled %d times, want %d", len(r.GhostFraction), r.Cycles)
	}
	// Self-healing: by the end of the run (eviction horizon past the last
	// departure) the online views must be ghost-free.
	if last := r.GhostFraction[len(r.GhostFraction)-1]; last != 0 {
		t.Fatalf("views never healed: final ghost fraction %v", last)
	}
	if r.LastDeparture >= 0 && r.HealedAt < 0 {
		t.Fatal("healing cycle not detected despite departures")
	}
	if s := r.String(); s == "" {
		t.Fatal("empty render")
	}
}

func TestChurnRunDeterministicAcrossEngineWorkers(t *testing.T) {
	run := func(workers int) ChurnResult {
		return ChurnRun(tiny(), ChurnConfig{
			ChurnOptions: ChurnOptions{FlashCrowd: 8, ChurnRate: 0.2},
			Fanout:       6, EngineOptions: EngineOptions{Workers: workers},
		})
	}
	a, b := run(1), run(4)
	if a.F1 != b.F1 || a.Recall != b.Recall || a.Precision != b.Precision {
		t.Fatalf("population metrics diverged across engine workers: %+v vs %+v", a, b)
	}
	if a.Stable != b.Stable || a.Joiner != b.Joiner || a.Rejoiner != b.Rejoiner {
		t.Fatal("cohort summaries diverged across engine workers")
	}
	if a.HealedAt != b.HealedAt {
		t.Fatalf("healing cycle diverged: %d vs %d", a.HealedAt, b.HealedAt)
	}
}

// TestEngineOptionsZeroValue pins the one rule every driver config shares:
// an unset engine pool is serial — not sim.Config's own zero, which means
// GOMAXPROCS — and the shard count passes through untouched.
func TestEngineOptionsZeroValue(t *testing.T) {
	for _, tc := range []struct {
		in                  EngineOptions
		wantWorkers, shards int
	}{
		{EngineOptions{}, 1, 0},
		{EngineOptions{Workers: -3}, 1, 0},
		{EngineOptions{Workers: 1, Shards: 1}, 1, 1},
		{EngineOptions{Workers: 6, Shards: 4}, 6, 4},
	} {
		cfg := tc.in.engine(sim.Config{Seed: 7, Workers: 99, Shards: 99})
		if cfg.Workers != tc.wantWorkers || cfg.Shards != tc.shards || cfg.Seed != 7 {
			t.Errorf("%+v resolved to workers=%d shards=%d seed=%d", tc.in, cfg.Workers, cfg.Shards, cfg.Seed)
		}
	}
	// Every driver config resolves through the same method.
	if got := (ChurnBenchConfig{}).engine(sim.Config{}).Workers; got != 1 {
		t.Errorf("ChurnBenchConfig zero value runs %d workers, want 1", got)
	}
}

// find returns the first point the predicate accepts (nil if none).
func find(pts []Point, match func(Point) bool) *Point {
	for i := range pts {
		if match(pts[i]) {
			return &pts[i]
		}
	}
	return nil
}
