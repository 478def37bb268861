package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/prng"
)

// runWorldWorkers is runWorld with an explicit engine worker-pool size and an
// optional per-delivery observer.
func runWorldWorkers(n, items, cycles int, loss float64, seed int64, workers int,
	onDelivery func(core.Delivery, int64)) *metrics.Collector {
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: int64(cycles)}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
	e := New(Config{
		Seed: seed, Cycles: cycles, Loss: loss, Publications: pubs,
		BootstrapDegree: 4, Workers: workers, OnDelivery: onDelivery,
	}, peers, col)
	e.Bootstrap()
	e.Run()
	return col
}

// fingerprint renders every observable collector quantity into one string so
// two runs can be compared bit-for-bit: quality metrics, per-kind message
// counts and bytes, per-node statistics and the hop histograms.
func fingerprint(c *metrics.Collector) string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%v R=%v F1=%v\n", c.Precision(), c.Recall(), c.F1())
	for k := metrics.MsgBeep; k <= metrics.MsgWUPReply; k++ {
		fmt.Fprintf(&b, "%v:%d/%d\n", k, c.Messages(k), c.Bytes(k))
	}
	for _, id := range c.NodeIDs() {
		ns := c.Node(id)
		fmt.Fprintf(&b, "node%d:%d,%d,%d,%d\n", id, ns.Interested, ns.Received, ns.ReceivedLiked, ns.DislikeDeliveries)
	}
	hists := []struct {
		name string
		h    map[int]int
	}{
		{"fwdLike", c.ForwardByLike}, {"fwdDislike", c.ForwardByDislike},
		{"infLike", c.InfectionByLike}, {"infDislike", c.InfectionByDislike},
		{"dislikesAtLiked", c.DislikesAtLikedArrival},
	}
	for _, hist := range hists {
		name, h := hist.name, hist.h
		keys := make([]int, 0, len(h))
		//whatsup:commutative keys collected then sorted below
		for k := range h {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		fmt.Fprintf(&b, "%s:", name)
		for _, k := range keys {
			fmt.Fprintf(&b, " %d=%d", k, h[k])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// TestDeterminismAcrossWorkerCounts is the engine's core contract: a given
// seed produces bit-identical collector output whether the phases run on
// one worker or many, and repeated runs reproduce each other exactly.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	const n, items, cycles, loss, seed = 120, 40, 25, 0.15, 7
	ref := fingerprint(runWorldWorkers(n, items, cycles, loss, seed, 1, nil))
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 2; rep++ {
			got := fingerprint(runWorldWorkers(n, items, cycles, loss, seed, workers, nil))
			if got != ref {
				t.Fatalf("workers=%d rep=%d diverged from the 1-worker run:\n--- want\n%s--- got\n%s",
					workers, rep, ref, got)
			}
		}
	}
}

// TestDeterminismOfDeliveryOrder pins the stronger contract that the
// OnDelivery callback sequence itself — not just the aggregated counters —
// is identical for any worker count.
func TestDeterminismOfDeliveryOrder(t *testing.T) {
	trace := func(workers int) string {
		var b strings.Builder
		runWorldWorkers(80, 30, 20, 0.1, 3, workers, func(d core.Delivery, now int64) {
			fmt.Fprintf(&b, "%d:%d->%d@%d\n", now, d.Item, d.Node, d.Hops)
		})
		return b.String()
	}
	ref := trace(1)
	if ref == "" {
		t.Fatal("no deliveries observed")
	}
	for _, workers := range []int{2, 8} {
		if got := trace(workers); got != ref {
			t.Fatalf("delivery order with %d workers diverged from serial run", workers)
		}
	}
}

// TestParallelDrainNoDuplicateDeliveries exercises the parallel BEEP drain
// under message loss (run with -race in CI): the SIR model must hold — no
// (node, item) pair is ever delivered twice — and the collector's totals
// must agree with the observed delivery stream.
func TestParallelDrainNoDuplicateDeliveries(t *testing.T) {
	const n, items, cycles, loss, seed, workers = 120, 40, 25, 0.3, 9, 4
	type key struct {
		node news.NodeID
		item news.ID
	}
	seen := make(map[key]int)
	observed := 0
	col := runWorldWorkers(n, items, cycles, loss, seed, workers, func(d core.Delivery, now int64) {
		if d.Duplicate {
			t.Fatalf("duplicate delivery surfaced to OnDelivery: %+v", d)
		}
		seen[key{d.Node, d.Item}]++
		observed++
	})
	for k, count := range seen {
		if count > 1 {
			t.Fatalf("node %d received item %d %d times", k.node, k.item, count)
		}
	}
	recorded := 0
	for _, id := range col.NodeIDs() {
		recorded += col.Node(id).Received
	}
	if recorded != observed {
		t.Fatalf("collector recorded %d deliveries, OnDelivery observed %d", recorded, observed)
	}
	if observed == 0 {
		t.Fatal("lossy run still must deliver something")
	}
}

// TestSimilarityCacheDeterministicAcrossWorkers pins that the versioned
// similarity cache (and the item profiles a forward's paths share) is
// invisible to simulation results: a workload heavy in dislike routing —
// the path that scores transient item profiles against RPS views — yields
// bit-identical precision/recall/F1 and full collector fingerprints at any
// worker count. Cache hit patterns differ between runs (views churn
// differently per worker count is false — state is deterministic — but
// warm-up differs across cycles); only the floats must not.
func TestSimilarityCacheDeterministicAcrossWorkers(t *testing.T) {
	// items mostly disliked: 4 communities, sources publish cross-community
	// so most receivers dislike and BEEP leans on MostSimilar orientation.
	build := func(workers int) *metrics.Collector {
		const n, items, cycles = 100, 36, 22
		opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
			return int(node)%4 == int(item)%4
		})
		cfg := core.Config{FLike: 3, RPSViewSize: 10, DislikeTTL: 4, ProfileWindow: int64(cycles)}
		peers := make([]Peer, n)
		for i := 0; i < n; i++ {
			peers[i] = core.NewNode(news.NodeID(i), "", cfg, opinions,
				rand.New(rand.NewSource(100+int64(i))))
		}
		col := metrics.NewCollector()
		var pubs []Publication
		for k := 0; k < items; k++ {
			src := news.NodeID((k + 1) % n) // usually outside the item's community
			it := news.New(fmt.Sprintf("d-%d", k), "d", "l", int64(1+k*cycles/items), src)
			it.ID = news.ID(k)
			pubs = append(pubs, Publication{Cycle: int64(1 + k*cycles/items), Source: src, Item: it})
			col.RegisterItem(it.ID, n/4)
		}
		for i := 0; i < n; i++ {
			col.RegisterNode(news.NodeID(i), items/4)
		}
		e := New(Config{Seed: 5, Cycles: cycles, Loss: 0.1, Workers: workers,
			BootstrapDegree: 4, Publications: pubs}, peers, col)
		e.Bootstrap()
		e.Run()
		return col
	}
	ref := build(1)
	if ref.Node(1).DislikeDeliveries == 0 && ref.Node(2).DislikeDeliveries == 0 {
		t.Log("warning: workload exercised little dislike routing")
	}
	refFP := fingerprint(ref)
	for _, workers := range []int{2, 8} {
		if got := fingerprint(build(workers)); got != refFP {
			t.Fatalf("workers=%d diverged with the similarity cache active:\n--- want\n%s--- got\n%s",
				workers, refFP, got)
		}
	}
}

// TestWorkersDefaultAndOverride checks the Workers knob surface.
func TestWorkersDefaultAndOverride(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 6}
	peers, _, col := communityWorld(10, 0, 10, cfg, 4)
	if e := New(Config{Seed: 4, Cycles: 10}, peers, col); e.Workers() < 1 {
		t.Fatalf("default workers=%d, want >= 1", e.Workers())
	}
	peers2, _, col2 := communityWorld(10, 0, 10, cfg, 4)
	if e := New(Config{Seed: 4, Cycles: 10, Workers: 3}, peers2, col2); e.Workers() != 3 {
		t.Fatalf("workers=%d, want 3", e.Workers())
	}
}

// TestStreamSeedsDecorrelated: a peer's engine stream starts unrelated to its
// neighbour's (id+1) and to the peer's own substrate stream, which
// core.NewSubstrate seeds with one draw from the caller's affine node seed
// (seed·1 000 003 + id). Unrelated means the first draws differ in about half
// their 64 bits.
func TestStreamSeedsDecorrelated(t *testing.T) {
	const peers = 4096
	for seed := int64(1); seed <= 3; seed++ {
		var nextID, node int
		for id := news.NodeID(0); id < peers; id++ {
			engine := prng.New(streamSeed(seed, id)).Uint64()
			substrate := prng.New(prng.New(uint64(seed*1_000_003 + int64(id))).Uint64()).Uint64()
			nextID += bits.OnesCount64(engine ^ prng.New(streamSeed(seed, id+1)).Uint64())
			node += bits.OnesCount64(engine ^ substrate)
		}
		for _, c := range []struct {
			name    string
			flipped int
		}{{"id+1's engine", nextID}, {"own substrate", node}} {
			if mean := float64(c.flipped) / peers; mean < 31 || mean > 33 {
				t.Errorf("seed %d: engine stream vs %s stream differ in %.2f bits on average, want 32 ± 1", seed, c.name, mean)
			}
		}
	}
}
