package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
)

// communityWorld builds a small 2-community workload: even nodes like even
// items, odd nodes like odd items. It returns peers, the schedule and a
// registered collector.
func communityWorld(n, items, cycles int, cfg core.Config, seed int64) ([]Peer, []Publication, *metrics.Collector) {
	opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
		return int(node)%2 == int(item)%2
	})
	peers := make([]Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = core.NewNode(news.NodeID(i), "", cfg, opinions, rand.New(rand.NewSource(seed+int64(i))))
	}
	col := metrics.NewCollector()
	var pubs []Publication
	for k := 0; k < items; k++ {
		source := news.NodeID((2*k + k%2) % n) // a node of the item's community
		if int(source)%2 != k%2 {
			source = news.NodeID((int(source) + 1) % n)
		}
		it := news.New(fmt.Sprintf("item-%d", k), "d", "l", int64(1+k*cycles/items), source)
		it.ID = news.ID(k)
		pubs = append(pubs, Publication{Cycle: int64(1 + k*cycles/items), Source: source, Item: it})
		col.RegisterItem(it.ID, n/2) // half the population is interested
	}
	for i := 0; i < n; i++ {
		col.RegisterNode(news.NodeID(i), items/2)
	}
	return peers, pubs, col
}

func runWorld(n, items, cycles int, loss float64, seed int64) *metrics.Collector {
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: int64(cycles)}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
	e := New(Config{Seed: seed, Cycles: cycles, LossRate: loss, Publications: pubs, BootstrapDegree: 4}, peers, col)
	e.Bootstrap()
	e.Run()
	return col
}

func TestDeterminism(t *testing.T) {
	a := runWorld(40, 30, 20, 0.1, 7)
	b := runWorld(40, 30, 20, 0.1, 7)
	if a.F1() != b.F1() {
		t.Fatalf("same seed must give identical F1: %v vs %v", a.F1(), b.F1())
	}
	if a.TotalMessages() != b.TotalMessages() {
		t.Fatalf("same seed must give identical traffic: %d vs %d", a.TotalMessages(), b.TotalMessages())
	}
	if a.Precision() != b.Precision() || a.Recall() != b.Recall() {
		t.Fatal("same seed must give identical precision/recall")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := runWorld(40, 30, 20, 0.1, 7)
	b := runWorld(40, 30, 20, 0.1, 8)
	if a.TotalMessages() == b.TotalMessages() && a.F1() == b.F1() {
		t.Fatal("different seeds should not produce byte-identical runs")
	}
}

func TestDisseminationReachesInterestedUsers(t *testing.T) {
	col := runWorld(40, 30, 25, 0, 1)
	if r := col.Recall(); r < 0.5 {
		t.Fatalf("recall too low in a 2-community world: %v", r)
	}
	if p := col.Precision(); p < 0.5 {
		t.Fatalf("precision too low: %v", p)
	}
	if col.Messages(metrics.MsgBeep) == 0 || col.GossipMessages() == 0 {
		t.Fatal("both BEEP and gossip traffic must be accounted")
	}
}

func TestLossDegradesRecall(t *testing.T) {
	clean := runWorld(40, 30, 25, 0, 2)
	lossy := runWorld(40, 30, 25, 0.6, 2)
	if lossy.Recall() >= clean.Recall() {
		t.Fatalf("60%% loss must hurt recall: clean=%v lossy=%v", clean.Recall(), lossy.Recall())
	}
}

func TestModerateLossToleratedByGossip(t *testing.T) {
	// The robustness headline: moderate loss should cost little recall
	// thanks to gossip redundancy (Table VI shape).
	clean := runWorld(60, 30, 25, 0, 3)
	lossy := runWorld(60, 30, 25, 0.1, 3)
	if lossy.Recall() < clean.Recall()-0.25 {
		t.Fatalf("10%% loss should be largely absorbed: clean=%v lossy=%v", clean.Recall(), lossy.Recall())
	}
}

func TestBootstrapSeedsViews(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 6}
	peers, _, col := communityWorld(10, 0, 10, cfg, 4)
	e := New(Config{Seed: 4, Cycles: 10, BootstrapDegree: 3}, peers, col)
	e.Bootstrap()
	for _, p := range peers {
		if p.Overlay().RPS().View().Len() != 3 {
			t.Fatalf("RPS view len=%d want 3", p.Overlay().RPS().View().Len())
		}
		if p.Overlay().WUP().View().Len() == 0 {
			t.Fatal("WUP view must be seeded")
		}
	}
}

func TestWUPGraphSnapshot(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 6}
	peers, pubs, col := communityWorld(20, 10, 15, cfg, 5)
	e := New(Config{Seed: 5, Cycles: 15, Publications: pubs}, peers, col)
	e.Bootstrap()
	e.Run()
	g := e.WUPGraph()
	nodes := 0
	for _, c := range g.SCC() {
		nodes += len(c)
	}
	if nodes != 20 {
		t.Fatalf("graph nodes=%d want 20", nodes)
	}
	if g.WeakComponents() == 20 {
		t.Fatal("WUP graph must have edges after a run")
	}
}

func TestOnDeliveryAndOnCycleEndHooks(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 6}
	peers, pubs, col := communityWorld(20, 10, 15, cfg, 6)
	deliveries, cycleEnds := 0, 0
	e := New(Config{
		Seed:         6,
		Cycles:       15,
		Publications: pubs,
		OnDelivery:   func(core.Delivery, int64) { deliveries++ },
		OnCycleEnd:   func(*Engine, int64) { cycleEnds++ },
	}, peers, col)
	e.Bootstrap()
	e.Run()
	if cycleEnds != 15 {
		t.Fatalf("OnCycleEnd fired %d times, want 15", cycleEnds)
	}
	if deliveries == 0 {
		t.Fatal("OnDelivery must observe deliveries")
	}
}

func TestStepAndAddPeer(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 6}
	peers, pubs, col := communityWorld(20, 10, 20, cfg, 7)
	e := New(Config{Seed: 7, Cycles: 20, Publications: pubs}, peers, col)
	e.Bootstrap()
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if e.Now() != 10 {
		t.Fatalf("Now=%d want 10", e.Now())
	}
	// Join a new node mid-run via cold start from peer 0's views.
	opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool { return int(item)%2 == 0 })
	join := core.NewNode(99, "", cfg, opinions, rand.New(rand.NewSource(99)))
	host := peers[0].(*core.Node)
	join.ColdStart(host.RPS().View().Entries(), host.WUP().View().Entries(), e.Now())
	e.AddPeer(join)
	e.Run()
	if e.Now() != 20 {
		t.Fatalf("Now=%d want 20", e.Now())
	}
	if join.UserProfile().Len() == 0 {
		t.Fatal("joining node must have cold-start ratings")
	}
	if e.Peer(99) == nil {
		t.Fatal("joined peer must be registered")
	}
}

func TestFullLossMeansOnlySources(t *testing.T) {
	col := runWorld(30, 20, 20, 1.0, 8)
	// With 100% loss nothing is ever delivered beyond the publishing node.
	if col.Recall() > 0.15 {
		t.Fatalf("recall should collapse under total loss, got %v", col.Recall())
	}
	if col.Messages(metrics.MsgBeep) == 0 {
		t.Fatal("sent-but-lost messages must still be counted")
	}
}

func TestHopHistogramsRecorded(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 8, DislikeTTL: 4, ProfileWindow: 25}
	peers, pubs, col := communityWorld(40, 20, 25, cfg, 9)
	e := New(Config{Seed: 9, Cycles: 25, Publications: pubs}, peers, col)
	e.Bootstrap()
	e.Run()
	if len(col.InfectionByLike) == 0 {
		t.Fatal("like infections must be recorded")
	}
	if len(col.ForwardByLike) == 0 {
		t.Fatal("like forwards must be recorded")
	}
	// In a half/half world dislike forwards are common.
	if len(col.ForwardByDislike) == 0 {
		t.Fatal("dislike forwards must be recorded")
	}
}
