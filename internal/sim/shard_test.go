package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
)

// Golden collector fingerprints of the pre-shard engine (captured at commit
// 1a0bbbe, before shard routing landed). The Shards=1 path must stay
// bit-identical with that engine forever: these hashes pin it.
const (
	// sha256 of fingerprint(runShardedWorld(workers, 1)) for any workers.
	goldenStaticWorld = "805421bead99aa25cf6b1c7a20716774e88228567ab6d1460f7616c003d00676"
	// sha256 of fingerprint(heavyChurnWorld(workers, 1)) for any workers.
	goldenHeavyWorld = "1b0c5d7ca9b309ee275b742e5d6091a6aecb14ce99d620116643119ea7f66ffc"
)

func fingerprintHash(c *metrics.Collector) string {
	h := sha256.Sum256([]byte(fingerprint(c)))
	return hex.EncodeToString(h[:])
}

// runShardedWorld is runWorldWorkers' static community world with a shard
// count: 120 peers, 40 items, 25 cycles at 15% loss.
func runShardedWorld(workers, shards int) *metrics.Collector {
	const n, items, cycles, loss, seed = 120, 40, 25, 0.15, 7
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: int64(cycles)}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
	e := New(Config{
		Seed: seed, Cycles: cycles, LossRate: loss, Publications: pubs,
		BootstrapDegree: 4, Workers: workers, Shards: shards,
	}, peers, col)
	e.Bootstrap()
	e.Run()
	return col
}

// heavyChurnWorld runs the kitchen-sink world the golden hashes were
// captured on: crash/leave/rejoin trace plus a flash crowd, departure
// notices, watermark refill, straggler links and a scheduled partition — so
// the pin covers every churn and faultnet seam crossing the shard boundary.
func heavyChurnWorld(workers, shards int) *metrics.Collector {
	const n, items, cycles, seed = 120, 40, 25, 7
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: int64(cycles), DescriptorTTL: 10}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
	opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
		return int(node)%2 == int(item)%2
	})
	schedule := ChurnTrace(ChurnTraceConfig{
		Seed: 11, Nodes: n, From: 2, To: cycles - 2,
		CrashRate: 0.15, LeaveRate: 0.05, Downtime: 3,
	})
	schedule.Merge(FlashCrowd(8, news.NodeID(n), 20, 5))
	ids := make([]news.NodeID, n)
	for i := range ids {
		ids[i] = news.NodeID(i)
	}
	links := faultnet.Stragglers(ids, 0.2, 3, faultnet.Rule{Loss: 0.1})
	groups := make(map[news.NodeID]int, n)
	for i, id := range ids {
		groups[id] = i % 2
	}
	links = links.AddPartition(faultnet.Partition{Groups: groups, Start: 12, Heal: 16})
	e := New(Config{
		Seed: seed, Cycles: cycles, LossRate: 0.15, Publications: pubs,
		BootstrapDegree: 4, Workers: workers, Shards: shards, Churn: schedule,
		DepartureNotices: true, RefillWatermark: 0.5, Links: links,
		NewPeer: func(id news.NodeID) Peer {
			return core.NewNode(id, "", cfg, opinions, rand.New(rand.NewSource(seed+int64(id))))
		},
	}, peers, col)
	e.Bootstrap()
	e.Run()
	return col
}

// TestShardsIdentityPin asserts the Shards=1 engine is bit-identical with
// the pre-shard engine, on both a static world and the heavy churn+faultnet
// world, for serial and parallel worker counts. If this fails, the refactor
// changed observable behaviour — not just an internal representation.
func TestShardsIdentityPin(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if got := fingerprintHash(runShardedWorld(workers, 1)); got != goldenStaticWorld {
			t.Errorf("static world, workers=%d: fingerprint hash %s, pre-shard golden %s", workers, got, goldenStaticWorld)
		}
		if got := fingerprintHash(heavyChurnWorld(workers, 1)); got != goldenHeavyWorld {
			t.Errorf("heavy churn world, workers=%d: fingerprint hash %s, pre-shard golden %s", workers, got, goldenHeavyWorld)
		}
	}
}

// TestShardMatrixDeterminism asserts collector fingerprints are
// bit-identical across the Shards × Workers matrix on the heavy
// churn+faultnet world — the core contract of the sharded engine: sharding
// (and its codec-routed inter-shard gossip) is a pure execution strategy.
func TestShardMatrixDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			shards, workers := shards, workers
			t.Run(fmt.Sprintf("heavy/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				t.Parallel()
				if got := fingerprintHash(heavyChurnWorld(workers, shards)); got != goldenHeavyWorld {
					t.Errorf("fingerprint hash %s, golden %s", got, goldenHeavyWorld)
				}
			})
			t.Run(fmt.Sprintf("static/shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				t.Parallel()
				if got := fingerprintHash(runShardedWorld(workers, shards)); got != goldenStaticWorld {
					t.Errorf("fingerprint hash %s, golden %s", got, goldenStaticWorld)
				}
			})
		}
	}
}

// twoContentsWorld runs a world in which one (node, stamp) names two profile
// contents, every cycle: a profile window short enough that BeginCycle purges
// an entry a cycle, and joiners and rejoiners every cycle, seeded before the
// purge with descriptors stamped like the post-purge pushes of the same
// cycle. It returns the collector fingerprint and every member's views, entry by entry
// with the profile's content.
func twoContentsWorld(workers, shards int) string {
	const n, items, cycles, seed = 120, 60, 30, 7
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: 4, DescriptorTTL: 10}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
	opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
		return int(node)%2 == int(item)%2
	})
	newPeer := func(id news.NodeID) Peer {
		return core.NewNode(id, "", cfg, opinions, rand.New(rand.NewSource(seed+int64(id))))
	}
	schedule := ChurnTrace(ChurnTraceConfig{
		Seed: 11, Nodes: n, From: 2, To: cycles - 2, CrashRate: 0.08, Downtime: 2,
	})
	schedule.Merge(FlashCrowd(6, news.NodeID(n), 12, 2))
	var steady ChurnSchedule
	for c := int64(2); c <= cycles; c++ {
		if c%3 == 1 {
			steady.Add(c, ChurnJoin, news.NodeID(1000+c-1))
		}
		// Node c-1 goes down at cycle c and comes back two cycles on.
		steady.Add(c, ChurnCrash, news.NodeID(c-1))
		steady.Add(c, ChurnRejoin, news.NodeID(c-3))
	}
	schedule.Merge(steady)
	e := New(Config{
		Seed: seed, Cycles: cycles, LossRate: 0.1, Publications: pubs,
		BootstrapDegree: 4, Workers: workers, Shards: shards, Churn: schedule,
		RefillWatermark: 0.5, NewPeer: newPeer,
	}, peers, col)
	e.Bootstrap()
	e.Run()
	var b strings.Builder
	b.WriteString(fingerprint(col))
	for _, p := range e.Peers() {
		o := p.Overlay()
		fmt.Fprintf(&b, "%d:", o.ID())
		for _, v := range []*overlay.View{o.RPS().View(), o.WUP().View()} {
			v.ForEach(func(d overlay.Descriptor) {
				fmt.Fprintf(&b, " %d@%d%x", d.Node, d.Stamp, d.Profile.AppendWire(nil))
			})
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestShardMatrixDeterminismTwoContents is TestShardMatrixDeterminism on the
// world where a destination shard's snapshot table is offered, under a key it
// holds, a content it does not: sharing a held snapshot on (node, stamp)
// alone — without comparing its bytes — fails it.
func TestShardMatrixDeterminismTwoContents(t *testing.T) {
	want := twoContentsWorld(1, 1)
	for _, shards := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			shards, workers := shards, workers
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				t.Parallel()
				if got := twoContentsWorld(workers, shards); got != want {
					t.Errorf("diverged from the serial engine:\n%s", firstDifference(got, want))
				}
			})
		}
	}
}

// firstDifference renders the first line two multi-line strings differ at.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got %s\nwant %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestShardedDeliveryOrder asserts OnDelivery observes the same delivery
// sequence for any shard count: the per-worker delivery buffers must replay
// in global receiver order whatever the routing did to the gossip that
// shaped the views.
func TestShardedDeliveryOrder(t *testing.T) {
	trace := func(shards int) []core.Delivery {
		const n, items, cycles, loss, seed = 80, 24, 15, 0.1, 3
		cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: int64(cycles)}
		peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
		var ds []core.Delivery
		e := New(Config{
			Seed: seed, Cycles: cycles, LossRate: loss, Publications: pubs,
			BootstrapDegree: 4, Workers: 4, Shards: shards,
			OnDelivery: func(d core.Delivery, now int64) { ds = append(ds, d) },
		}, peers, col)
		e.Bootstrap()
		e.Run()
		return ds
	}
	want := trace(1)
	if len(want) == 0 {
		t.Fatal("no deliveries in reference run")
	}
	for _, shards := range []int{3, 8} {
		got := trace(shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d deliveries, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: delivery %d = %+v, want %+v", shards, i, got[i], want[i])
			}
		}
	}
}

// inflightPeer wraps a peer and counts, across every peer sharing the
// counter, the BeginCycle, InjectRPSCandidates and Receive calls in progress,
// keeping the high-water mark. Each call yields the processor before it runs,
// so calls that may overlap do, even on one CPU.
type inflightPeer struct {
	Peer
	cur, high *atomic.Int64
}

func (p inflightPeer) enter() {
	n := p.cur.Add(1)
	for h := p.high.Load(); n > h && !p.high.CompareAndSwap(h, n); h = p.high.Load() {
	}
	runtime.Gosched()
}

func (p inflightPeer) exit() { p.cur.Add(-1) }

func (p inflightPeer) BeginCycle(now int64) {
	p.enter()
	defer p.exit()
	p.Peer.BeginCycle(now)
}

func (p inflightPeer) InjectRPSCandidates() {
	p.enter()
	defer p.exit()
	p.Peer.InjectRPSCandidates()
}

func (p inflightPeer) Receive(msg core.ItemMessage, now int64) (core.Delivery, []core.Send) {
	p.enter()
	defer p.exit()
	return p.Peer.Receive(msg, now)
}

// TestWorkersBoundPeerCalls asserts Config.Workers is the whole pool: no
// more peer calls run at once than there are workers, whatever the shard
// count, and Workers 1 runs the engine serially.
func TestWorkersBoundPeerCalls(t *testing.T) {
	for _, c := range []struct{ workers, shards, most int64 }{{1, 4, 1}, {2, 4, 2}, {2, 1, 2}} {
		const n, items, cycles, loss, seed = 80, 24, 8, 0.1, 3
		cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: cycles}
		peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
		var cur, high atomic.Int64
		for i, p := range peers {
			peers[i] = inflightPeer{Peer: p, cur: &cur, high: &high}
		}
		e := New(Config{
			Seed: seed, Cycles: cycles, LossRate: loss, Publications: pubs,
			BootstrapDegree: 4, Workers: int(c.workers), Shards: int(c.shards),
		}, peers, col)
		e.Bootstrap()
		e.Run()
		if got := high.Load(); got < 1 || got > c.most {
			t.Errorf("workers %d shards %d: up to %d peer calls at once, want 1 to %d", c.workers, c.shards, got, c.most)
		}
	}
}

// TestShardStats asserts cross-shard routing is observable (and only at
// Shards>1): the engine must actually be exercising the codec path that the
// determinism matrix relies on, not silently running in-memory hand-offs.
func TestShardStats(t *testing.T) {
	const n, items, cycles, loss, seed = 80, 24, 10, 0.1, 3
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: int64(cycles)}
	build := func(shards int) *Engine {
		peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
		e := New(Config{
			Seed: seed, Cycles: cycles, LossRate: loss, Publications: pubs,
			BootstrapDegree: 4, Workers: 2, Shards: shards,
		}, peers, col)
		e.Bootstrap()
		e.Run()
		return e
	}
	if st := build(1).ShardStats(); st != (ShardStats{}) {
		t.Errorf("Shards=1 routed traffic: %+v", st)
	}
	st := build(4).ShardStats()
	if st.Crossings == 0 || st.Batches == 0 || st.BatchBytes == 0 {
		t.Errorf("Shards=4 routed no traffic: %+v", st)
	}
	// Descriptors circulate for many cycles: a destination shard must find
	// most of what it is sent already decoded, and share it.
	if st.SnapshotsDecoded == 0 || st.SnapshotsShared <= st.SnapshotsDecoded {
		t.Errorf("Shards=4 shared %d routed snapshots and decoded %d, want mostly shared", st.SnapshotsShared, st.SnapshotsDecoded)
	}
	if e := build(4); e.Shards() != 4 {
		t.Errorf("Shards() = %d, want 4", e.Shards())
	}
}

// TestCrossShardDecodeAllocs pins what one routeCrossShard costs on a warmed
// 1000-peer Shards=4 world: a routed snapshot the destination shard holds is
// shared for nothing, one it sees for the first time costs one allocation
// (its snapshot, bytes boxed with the header), and nothing else on the route
// allocates per descriptor.
func TestCrossShardDecodeAllocs(t *testing.T) {
	const n, items, cycles, seed, warm = 1000, 80, 40, 7, 8
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: cycles}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
	for i, p := range peers {
		// No profile is empty (an empty one has no entries to allocate).
		p.Overlay().UserProfile().Set(news.ID(1_000_000+i), 1, 1)
	}
	e := New(Config{Seed: seed, Cycles: cycles, Publications: pubs, BootstrapDegree: 4, Workers: 1, Shards: 4}, peers, col)
	e.Bootstrap()
	for i := 0; i < warm; i++ {
		e.Step()
	}
	// One round's WUP pushes (self-descriptor plus the whole view each),
	// routed again and again: route replaces the crossing legs with decoded
	// copies, so the table is restored before every run.
	pushes := slices.Clone(e.computePushes(warm+1, core.WUPLayer, metrics.MsgWUPRequest))
	route := func(forget bool) (allocs float64, st ShardStats) {
		allocs = testing.AllocsPerRun(1, func() {
			if forget {
				for d := range e.xdec {
					e.xdec[d].snaps.Rotate()
					e.xdec[d].snaps.Rotate()
				}
			}
			copy(e.exs, pushes)
			before := e.ShardStats()
			e.routeCrossShard(e.exs[:n], false, core.WUPLayer)
			st = e.ShardStats()
			st.SnapshotsShared -= before.SnapshotsShared
			st.SnapshotsDecoded -= before.SnapshotsDecoded
		})
		return allocs, st
	}
	route(false) // every snapshot of the round is now held
	held, st := route(false)
	if st.SnapshotsDecoded != 0 || st.SnapshotsShared < n {
		t.Fatalf("a repeated round shared %d snapshots and decoded %d, want all shared", st.SnapshotsShared, st.SnapshotsDecoded)
	}
	// What is left is the route's own: a goroutine and its closure per
	// destination shard, whatever they decode.
	if held > float64(3*e.nshards) {
		t.Errorf("routing %d held snapshots allocates %.0f, want none per snapshot", st.SnapshotsShared, held)
	}
	fresh, st := route(true)
	if st.SnapshotsDecoded < n/2 || st.SnapshotsShared == 0 {
		t.Fatalf("a forgotten round shared %d snapshots and decoded %d, want both", st.SnapshotsShared, st.SnapshotsDecoded)
	}
	if want := held + float64(st.SnapshotsDecoded); fresh != want {
		t.Errorf("routing %d first sightings and %d held snapshots allocates %.0f, want %.0f (one a first sighting)",
			st.SnapshotsDecoded, st.SnapshotsShared, fresh, want)
	}
}
