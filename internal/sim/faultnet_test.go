package sim

import (
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
)

// faultWorldPolicy builds the fault scenario the determinism tests pin: a
// straggler cohort behind lossy links plus a 2-way partition over the middle
// of the run.
func faultWorldPolicy(n int, start, heal int64) *faultnet.Policy {
	ids := make([]news.NodeID, n)
	for i := range ids {
		ids[i] = news.NodeID(i)
	}
	p := faultnet.Stragglers(ids, 0.25, 11, faultnet.Rule{Loss: 0.3})
	groups := make(map[news.NodeID]int, n)
	for i, id := range ids {
		groups[id] = i % 2
	}
	return p.AddPartition(faultnet.Partition{Groups: groups, Start: start, Heal: heal})
}

// runFaultWorld is runWorldWorkers with a link policy overlaid on the
// uniform loss model.
func runFaultWorld(n, items, cycles int, seed int64, workers int, links *faultnet.Policy) *metrics.Collector {
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: int64(cycles)}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
	e := New(Config{
		Seed: seed, Cycles: cycles, LossRate: 0.1, Publications: pubs,
		BootstrapDegree: 4, Workers: workers, Links: links,
	}, peers, col)
	e.Bootstrap()
	e.Run()
	return col
}

// TestFaultnetDeterminismAcrossWorkerCounts extends the engine's core
// determinism contract to fault injection: with per-link loss draws and a
// scheduled partition active, a given seed still produces bit-identical
// collector output on one worker or many. The policy's draws are stateless
// hashes keyed by (link, cycle), so no worker interleaving can reorder them.
func TestFaultnetDeterminismAcrossWorkerCounts(t *testing.T) {
	const n, items, cycles, seed = 120, 40, 25, 7
	links := faultWorldPolicy(n, 8, 16)
	ref := fingerprint(runFaultWorld(n, items, cycles, seed, 1, links))
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 2; rep++ {
			got := fingerprint(runFaultWorld(n, items, cycles, seed, workers, faultWorldPolicy(n, 8, 16)))
			if got != ref {
				t.Fatalf("workers=%d rep=%d diverged from the 1-worker run under faults:\n--- want\n%s--- got\n%s",
					workers, rep, ref, got)
			}
		}
	}
}

// TestFaultnetEmptyPolicyMatchesNil pins the zero-cost contract: attaching
// an empty policy must not consume a single RNG draw anywhere, so the run is
// bit-identical with the nil-policy history the seed corpus was recorded
// under.
func TestFaultnetEmptyPolicyMatchesNil(t *testing.T) {
	const n, items, cycles, seed = 100, 30, 20, 5
	ref := fingerprint(runFaultWorld(n, items, cycles, seed, 2, nil))
	got := fingerprint(runFaultWorld(n, items, cycles, seed, 2, faultnet.New()))
	if got != ref {
		t.Fatalf("empty policy diverged from nil policy:\n--- want\n%s--- got\n%s", ref, got)
	}
}

// TestPartitionHealsViewsReconverge runs a mid-run 2-way partition (halves,
// orthogonal to the interest communities) and pins the robustness story:
// while the cut is up no item crosses it (dissemination is SIR — copies
// dropped at the cut are gone, not queued); after the heal the overlays
// re-knit through the stale descriptors each side retained, so items
// published after the heal flow across the former cut again.
func TestPartitionHealsViewsReconverge(t *testing.T) {
	const (
		n      = 80
		items  = 24
		cycles = 44
		start  = 10
		heal   = 24
	)
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: cycles}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, 3)
	// One extra item published mid-cut from node 0 (group 0): its copies
	// toward group 1 die at the cut.
	late := news.New("cut-item", "d", "l", heal-2, 0)
	late.ID = news.ID(1000)
	pubs = append(pubs, Publication{Cycle: heal - 2, Source: 0, Item: late})
	col.RegisterItem(late.ID, n/2)

	group := func(id news.NodeID) int {
		if int(id) < n/2 {
			return 0
		}
		return 1
	}
	ids := make([]news.NodeID, n)
	for i := range ids {
		ids[i] = news.NodeID(i)
	}
	groups := make(map[news.NodeID]int, n)
	for _, id := range ids {
		groups[id] = group(id)
	}
	links := faultnet.New()
	links.AddPartition(faultnet.Partition{Groups: groups, Start: start, Heal: heal})

	crossEdges := func(e *Engine) int {
		cross := 0
		for _, p := range e.Peers() {
			for _, d := range p.Overlay().RPS().View().Entries() {
				if group(p.Overlay().ID()) != group(d.Node) {
					cross++
				}
			}
		}
		return cross
	}
	// itemGroup maps every item to its source's partition side, so the
	// delivery stream can be audited for cut crossings.
	itemGroup := make(map[news.ID]int, len(pubs))
	itemCycle := make(map[news.ID]int64, len(pubs))
	for _, pub := range pubs {
		itemGroup[pub.Item.ID] = group(pub.Source)
		itemCycle[pub.Item.ID] = pub.Cycle
	}
	var crossAtHealEve, crossAtEnd int
	crossedDuringCut := 0
	crossedAfterHeal := 0
	e := New(Config{
		Seed: 3, Cycles: cycles, Publications: pubs, BootstrapDegree: 4,
		Links: links,
		OnDelivery: func(d core.Delivery, now int64) {
			if group(d.Node) == itemGroup[d.Item] {
				return
			}
			switch {
			case now >= start && now < heal:
				crossedDuringCut++
			case now >= heal && itemCycle[d.Item] >= heal:
				// An item born after the heal reached the other side: the
				// overlay re-knit end to end.
				crossedAfterHeal++
			}
		},
		OnCycleEnd: func(e *Engine, now int64) {
			switch now {
			case heal - 1:
				crossAtHealEve = crossEdges(e)
			case cycles:
				crossAtEnd = crossEdges(e)
			}
		},
	}, peers, col)
	e.Bootstrap()
	e.Run()

	if crossedDuringCut != 0 {
		t.Fatalf("%d deliveries crossed the partition while the cut was up, want 0", crossedDuringCut)
	}
	// The retained (stale) cross-group descriptors are the heal's seed: the
	// cut must not have scrubbed every one, and by the end of the run gossip
	// must have re-knit the views across the former cut.
	if crossAtHealEve == 0 {
		t.Fatal("no cross-group descriptors survived the cut; the overlay cannot re-knit")
	}
	if crossAtEnd == 0 {
		t.Fatal("views never re-knit across the healed partition")
	}
	if crossedAfterHeal == 0 {
		t.Fatal("no post-heal item ever reached the far side; dissemination never recovered")
	}
}
