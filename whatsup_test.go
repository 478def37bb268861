package whatsup

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"whatsup/internal/metrics"
	"whatsup/internal/sim"
)

func TestSimulationEndToEnd(t *testing.T) {
	ds := SurveyDataset(1, 0.08)
	s := NewSimulation(ds, SimulationConfig{Node: Config{FLike: 5}, Seed: 1})
	s.Run()
	r := s.Results()
	if r.F1 <= 0 || r.Messages == 0 {
		t.Fatalf("empty results: %+v", r)
	}
	if r.Precision <= 0 || r.Recall <= 0 {
		t.Fatalf("zero quality: %+v", r)
	}
}

func TestSimulationDeterminism(t *testing.T) {
	ds := SurveyDataset(2, 0.08)
	run := func() Results {
		s := NewSimulation(ds, SimulationConfig{Node: Config{FLike: 5}, Seed: 9})
		s.Run()
		return s.Results()
	}
	if run() != run() {
		t.Fatal("simulations with the same seed must be identical")
	}
}

func TestSimulationStepAndNodeAccess(t *testing.T) {
	ds := SurveyDataset(3, 0.08)
	s := NewSimulation(ds, SimulationConfig{Node: Config{FLike: 5}, Seed: 1})
	for i := 0; i < 10; i++ {
		s.Step()
	}
	deliveries := 0
	for _, id := range s.col.NodeIDs() {
		deliveries += s.col.Node(id).Received
	}
	if s.Node(0) == nil {
		t.Fatal("node 0 must be accessible")
	}
	if s.Node(NodeID(ds.Users+5)) != nil {
		t.Fatal("unknown node must be nil")
	}
	if deliveries == 0 {
		t.Fatal("ten steps must deliver")
	}
}

func TestDatasetConstructors(t *testing.T) {
	if ds := SyntheticDataset(1, 0.03); ds.Users == 0 {
		t.Fatal("synthetic empty")
	}
	if ds := SurveyDataset(1, 0.05); len(ds.Items) == 0 {
		t.Fatal("survey empty")
	}
}

func TestNewNode(t *testing.T) {
	n := NewNode(1, Config{}, OpinionFunc(func(NodeID, ItemID) bool { return true }), 42)
	if n.ID() != 1 {
		t.Fatal("node id")
	}
	if n.Config().FLike != 10 {
		t.Fatal("defaults must apply")
	}
}

func TestRunLiveChannels(t *testing.T) {
	// Wall-clock-bound (every message round-trips the wire codec): allow a
	// couple of attempts on loaded machines, like TestTCPNetDelivers.
	for attempt := 0; attempt < 3; attempt++ {
		ds := SurveyDataset(4+int64(attempt), 0.05)
		r := NewLiveRunner(LiveRunnerConfig{
			NodeConfig:  Config{FLike: 4, ProfileWindow: 25},
			Seed:        1,
			Cycles:      25,
			CycleLength: 4 * time.Millisecond,
		}, ds, NewChannelNet(0, 0))
		r.Run()
		if r.Collector().Recall() > 0 {
			return
		}
	}
	t.Fatal("live run must deliver")
}

func TestRunLiveChurnSchedule(t *testing.T) {
	// A churn schedule in the façade's live config reaches the runtime's
	// membership controller: a crash+rejoin and a graceful leave over the
	// channel transport must complete and still deliver traffic.
	ds := SurveyDataset(6, 0.05)
	var schedule sim.ChurnSchedule
	schedule.Add(4, sim.ChurnCrash, 0)
	schedule.Add(10, sim.ChurnRejoin, 0)
	schedule.Add(7, sim.ChurnLeave, 1)
	r := NewLiveRunner(LiveRunnerConfig{
		NodeConfig:  Config{FLike: 4, ProfileWindow: 25, DescriptorTTL: 8},
		Seed:        1,
		Cycles:      25,
		CycleLength: 4 * time.Millisecond,
		Churn:       schedule,
	}, ds, NewChannelNet(0, 0))
	r.Run()
	if r.Collector().TotalMessages() == 0 {
		t.Fatal("churning live run produced no traffic")
	}
}

func TestMetricsExposed(t *testing.T) {
	ds := SurveyDataset(5, 0.05)
	s := NewSimulation(ds, SimulationConfig{Node: Config{FLike: 4}, Seed: 2})
	s.Run()
	if s.Results().Messages == 0 {
		t.Fatal("collector must be populated")
	}
}

// TestSimulationChurnSchedule runs the façade's world under a churn
// schedule: the engine applies a flash crowd, a crash with its rejoin and a
// graceful leave to the nodes NewSimulation builds.
func TestSimulationChurnSchedule(t *testing.T) {
	ds := SurveyDataset(3, 0.08)
	w, engineCfg := SimulationConfig{Node: Config{FLike: 5, DescriptorTTL: 10}, Seed: 4}.world(ds)
	w.Churn = sim.FlashCrowd(5, NodeID(ds.Users), 6, 3)
	w.Churn.Add(8, sim.ChurnCrash, 0)
	w.Churn.Add(12, sim.ChurnRejoin, 0)
	w.Churn.Add(9, sim.ChurnLeave, 1)
	e, col := w.NewEngine(engineCfg)
	e.Run()
	if st, ok := e.State(NodeID(ds.Users)); !ok || st != sim.Online {
		t.Fatalf("flash-crowd joiner state = %v, %v", st, ok)
	}
	if st, _ := e.State(0); st != sim.Online {
		t.Fatalf("rejoined node state = %v", st)
	}
	if st, _ := e.State(1); st != sim.Departed {
		t.Fatalf("departed node state = %v", st)
	}
	if joiner, _ := e.Peer(NodeID(ds.Users)).(*Node); joiner == nil || joiner.WUP().View().Len() == 0 {
		t.Fatal("joiner must exist with bootstrapped views")
	}
	if col.F1() <= 0 {
		t.Fatal("churning run produced no quality signal")
	}
}

// simulationDigest hashes what a simulation's draws leave behind: precision,
// per-kind traffic, every node's delivery counters and final lifecycle
// state. With recall set it adds the figures that read the registered recall
// denominators too.
func simulationDigest(e *sim.Engine, c *metrics.Collector, recall bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%v\n", c.Precision())
	if recall {
		fmt.Fprintf(&b, "%+v\n", c.Quality())
	}
	for k := metrics.MsgBeep; k <= metrics.MsgRefillReply; k++ {
		fmt.Fprintf(&b, "%v:%d/%d\n", k, c.Messages(k), c.Bytes(k))
	}
	for _, id := range c.NodeIDs() {
		ns := c.Node(id)
		st, _ := e.State(id)
		fmt.Fprintf(&b, "node%d:%d,%d,%d,%v\n", id, ns.Received, ns.ReceivedLiked, ns.DislikeDeliveries, st)
		if recall {
			fmt.Fprintf(&b, "  %d,%d\n", ns.Interested, ns.EligibleInterested)
		}
	}
	h := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(h[:])
}

// TestDriverOutputsPinned is the façade case of the driver pins
// (internal/experiments has the rest): the façade's world — NewSimulation's
// nodes on sim.DatasetWorld — under a churn schedule, message loss,
// departure notices and view refill, hashed at e876bb7 when NewSimulation
// still assembled its own world and took all four as options. The trace
// case has no joiners and pins every figure. The crowd case pins the draws
// only: the old façade never registered scheduled joiners with the
// collector, so their liked deliveries counted into item recall while they
// were missing from its denominator; World.Register counts them, which
// moves recall and nothing else.
func TestDriverOutputsPinned(t *testing.T) {
	ds := SurveyDataset(3, 0.1)
	trace := sim.ChurnTrace(sim.ChurnTraceConfig{
		Seed: 3, Nodes: ds.Users, From: 5, To: int64(ds.Cycles) - 8,
		CrashRate: 0.02, LeaveRate: 0.005, Downtime: 4,
	})
	crowd := sim.FlashCrowd(6, NodeID(ds.Users), 7, 3)
	crowd.Merge(trace)
	for _, tc := range []struct {
		name   string
		churn  sim.ChurnSchedule
		recall bool
		want   string
	}{
		{"trace", trace, true, "85b31b5786b589001ac023da285eeaf55613e296549b157bf09d9d827fcc686b"},
		{"crowd", crowd, false, "96fbbf460667924669a18c6deff280fb3016bc1c7d6f2f83ea5b958e8ee51ffe"},
	} {
		w, engineCfg := SimulationConfig{Node: Config{FLike: 5, DescriptorTTL: 10}, Seed: 4}.world(ds)
		w.Churn = tc.churn
		engineCfg.Loss, engineCfg.DepartureNotices, engineCfg.RefillWatermark = 0.03, true, 0.5
		e, col := w.NewEngine(engineCfg)
		e.Run()
		if got := simulationDigest(e, col, tc.recall); got != tc.want {
			t.Errorf("%s hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
