package sim

import (
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
)

// protoWorld builds a small community world with the churn protocol knobs
// set, returning the engine ready to step manually.
func protoWorld(n, cycles int, schedule ChurnSchedule, cfg core.Config, simCfg func(*Config)) (*Engine, *metrics.Collector) {
	return protoWorldSeed(6, n, cycles, schedule, cfg, simCfg)
}

// protoWorldSeed is protoWorld at a given run seed.
func protoWorldSeed(seed int64, n, cycles int, schedule ChurnSchedule, cfg core.Config, simCfg func(*Config)) (*Engine, *metrics.Collector) {
	opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
		return int(node)%2 == int(item)%2
	})
	peers := make([]Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = core.NewNode(news.NodeID(i), "", cfg, opinions, rand.New(rand.NewSource(seed*10+int64(i))))
	}
	col := metrics.NewCollector()
	c := Config{Seed: seed, Cycles: cycles, BootstrapDegree: 5, Churn: schedule}
	if simCfg != nil {
		simCfg(&c)
	}
	e := New(c, peers, col)
	e.Bootstrap()
	return e, col
}

// holders counts the online views that still contain the given node.
func holders(e *Engine, id news.NodeID) int {
	n := 0
	for _, p := range onlinePeers(e) {
		if p.Overlay().RPS().View().Contains(id) || p.Overlay().WUP().View().Contains(id) {
			n++
		}
	}
	return n
}

// TestDepartureNoticesEvictLeaverFast is the tentpole property at the sim
// level: with notices on, a graceful leaver vanishes from every online view
// within a couple of cycles — far inside the 30-cycle TTL that is the only
// other eviction path — while the same world with notices off still holds
// ghost descriptors then.
func TestDepartureNoticesEvictLeaverFast(t *testing.T) {
	const n, cycles, leaveCycle = 60, 20, 8
	const leaver = news.NodeID(11)
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: cycles, DescriptorTTL: 30}
	var schedule ChurnSchedule
	schedule.Add(leaveCycle, ChurnLeave, leaver)

	run := func(notices bool) (atLeave, after int) {
		e, _ := protoWorld(n, cycles, schedule, cfg, func(c *Config) { c.DepartureNotices = notices })
		for e.Now() < leaveCycle-1 {
			e.Step()
		}
		atLeave = holders(e, leaver)
		e.Step() // the leave applies at the start of this cycle
		e.Step() // one more cycle for forwarded tombstones to flood
		return atLeave, holders(e, leaver)
	}

	atLeave, withNotices := run(true)
	if atLeave == 0 {
		t.Fatal("setup: nobody held the leaver's descriptor before it left")
	}
	if withNotices != 0 {
		t.Fatalf("with departure notices %d views still hold the leaver one cycle after the flood began", withNotices)
	}
	if _, without := run(false); without == 0 {
		t.Fatal("without notices the leaver should still haunt views (TTL=30 cannot have evicted it)")
	}
}

// liveReach counts the online peers a peer can reach by following view
// entries (either layer) from peer to peer: the set a refill can ever draw
// from, since a pull returns the target's descriptor and half its view.
func liveReach(online map[news.NodeID]Peer, from Peer) int {
	seen := map[news.NodeID]bool{from.Overlay().ID(): true}
	queue := []Peer{from}
	for len(queue) > 0 {
		s := queue[0].Overlay()
		queue = queue[1:]
		visit := func(d overlay.Descriptor) {
			if p := online[d.Node]; p != nil && !seen[d.Node] {
				seen[d.Node] = true
				queue = append(queue, p)
			}
		}
		s.RPS().View().ForEach(visit)
		s.WUP().View().ForEach(visit)
	}
	return len(seen) - 1
}

// TestRefillRecoversDrainedViews: after a mass crash drains the survivors'
// views via TTL eviction, the anti-entropy refill pulls them back above the
// watermark, and its request/reply traffic is visible in the collector.
//
// What refill promises is stated per peer and held over 50 seeds, not one:
// every survivor that can still reach enough live peers to fill its view to
// the watermark ends at or above it. A survivor whose every neighbour crashed
// (or that is left in a clique smaller than the watermark) is stranded, which
// RefillTarget documents as out of scope; those are counted and bounded.
// Seeds 1-50 strand 27 of 1 500 survivors (all 27 fully isolated) under the
// splitmix64 streams, 13 (9 isolated, two cliques of two) under math/rand's
// ALFG at the parent commit; seeds 1-1 800 strand 0.43 and 0.39 a run.
func TestRefillRecoversDrainedViews(t *testing.T) {
	const n, cycles, crashCycle, seeds = 60, 30, 8, 50
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: cycles, DescriptorTTL: 4}
	var schedule ChurnSchedule
	for i := 0; i < n/2; i++ { // crash half the world, never to return
		schedule.Add(crashCycle, ChurnCrash, news.NodeID(i*2))
	}

	const wm = 0.5
	refill := func(c *Config) { c.RefillWatermark = wm }
	survivors, stranded := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		e, col := protoWorldSeed(seed, n, cycles, schedule, cfg, refill)
		e.Run()
		online := make(map[news.NodeID]Peer)
		for _, p := range onlinePeers(e) {
			online[p.Overlay().ID()] = p
		}
		for _, p := range online {
			v := p.Overlay().RPS().View()
			reach := liveReach(online, p)
			survivors++
			if float64(reach) < wm*float64(v.Capacity()) {
				stranded++
			} else if fill := float64(v.Len()) / float64(v.Capacity()); fill < wm {
				t.Errorf("seed %d: peer %d reaches %d live peers but its RPS fill is %.2f, want >= watermark %.1f",
					seed, p.Overlay().ID(), reach, fill, wm)
			}
		}
		if col.Messages(metrics.MsgRefillRequest) == 0 || col.Messages(metrics.MsgRefillReply) == 0 {
			t.Fatalf("seed %d: refill traffic not recorded: %d requests, %d replies",
				seed, col.Messages(metrics.MsgRefillRequest), col.Messages(metrics.MsgRefillReply))
		}
		if col.Bytes(metrics.MsgRefillRequest) == 0 {
			t.Fatalf("seed %d: refill requests must account their wire bytes", seed)
		}
	}
	t.Logf("%d of %d survivors stranded over %d seeds", stranded, survivors, seeds)
	if stranded*20 > survivors {
		t.Fatalf("%d of %d survivors stranded, want <= 5 %%", stranded, survivors)
	}

	plain, plainCol := protoWorld(n, cycles, schedule, cfg, nil)
	plain.Run()
	if plainCol.Messages(metrics.MsgRefillRequest) != 0 {
		t.Fatal("refill disabled by default must send no refill traffic")
	}
}

// TestChurnProtocolV2Determinism extends the worker-count determinism
// contract to the full v2 feature set: departure notices and refill enabled
// under a heavy churn schedule must stay bit-identical for Workers 1, 2, 8.
func TestChurnProtocolV2Determinism(t *testing.T) {
	const n, items, cycles, loss, seed = 120, 40, 40, 0.15, 7
	schedule := heavySchedule(n, cycles)
	run := func(workers int) (*metrics.Collector, *Engine) {
		return runChurnWorldCfg(n, items, cycles, loss, seed, workers, schedule, func(c *Config) {
			c.DepartureNotices = true
			c.RefillWatermark = 0.5
		})
	}
	refCol, refEngine := run(1)
	ref := fingerprint(refCol)
	if refCol.Messages(metrics.MsgDeparture) == 0 {
		t.Fatal("the heavy schedule must generate departure notices")
	}
	for _, workers := range []int{2, 8} {
		col, e := run(workers)
		if got := fingerprint(col); got != ref {
			t.Fatalf("workers=%d diverged with churn protocol v2 on:\n--- want\n%s--- got\n%s", workers, ref, got)
		}
		if e.OnlineCount() != refEngine.OnlineCount() || len(e.mem.members) != len(refEngine.mem.members) {
			t.Fatalf("membership diverged: %d/%d online vs %d/%d",
				e.OnlineCount(), len(e.mem.members), refEngine.OnlineCount(), len(refEngine.mem.members))
		}
	}
}

// runChurnWorldCfg mirrors runChurnWorld but lets the test mutate the engine
// config (protocol v2 knobs) before the run.
func runChurnWorldCfg(n, items, cycles int, loss float64, seed int64, workers int,
	schedule ChurnSchedule, mut func(*Config)) (*metrics.Collector, *Engine) {
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: int64(cycles), DescriptorTTL: 10}
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
		source := news.NodeID((2*k + k%2) % n)
		if int(source)%2 != k%2 {
			source = news.NodeID((int(source) + 1) % n)
		}
		it := news.New("v2-item", "d", "l", int64(1+k*cycles/items), source)
		it.ID = news.ID(k)
		pubs = append(pubs, Publication{Cycle: int64(1 + k*cycles/items), Source: source, Item: it})
		col.RegisterItem(it.ID, n/2)
	}
	for i := 0; i < n; i++ {
		col.RegisterNode(news.NodeID(i), items/2)
	}
	c := Config{
		Seed: seed, Cycles: cycles, LossRate: loss, Publications: pubs,
		BootstrapDegree: 4, Workers: workers, Churn: schedule,
		NewPeer: func(id news.NodeID) Peer {
			return core.NewNode(id, "", cfg, opinions, rand.New(rand.NewSource(seed+int64(id))))
		},
	}
	if mut != nil {
		mut(&c)
	}
	e := New(c, peers, col)
	e.Bootstrap()
	e.Run()
	return col, e
}

// TestDepartureNoticesShareTombstonesAcrossWorkers runs a world of graceful
// leavers announcing themselves on two workers, with gossip kept in memory
// and routed across four shards: peers on different workers read one
// another's tombstone arrays and adopt them, and no array is written once a
// graveyard has published it. The race detector sees any such write; the
// collector must match the serial run's bit for bit, and graveyards must
// end up sharing arrays, or the test checks nothing.
func TestDepartureNoticesShareTombstonesAcrossWorkers(t *testing.T) {
	const peers, cycles = 100, 20
	serial, refCol := leaverWorld(peers, cycles, 1, 1, leaverRate)
	serial.Run()
	ref := fingerprint(refCol)
	if refCol.Messages(metrics.MsgDeparture) == 0 {
		t.Fatal("the world must generate departure notices")
	}
	for _, shards := range []int{1, 4} {
		e, col := leaverWorld(peers, cycles, 2, shards, leaverRate)
		e.Run()
		if got := fingerprint(col); got != ref {
			t.Fatalf("workers 2 shards %d diverged from the serial run:\n--- want\n%s--- got\n%s", shards, ref, got)
		}
		seen := make(map[*overlay.Tombstone]bool)
		shared := 0
		for _, p := range onlinePeers(e) {
			if tombs := p.Overlay().Tombstones(); len(tombs) > 0 {
				if seen[&tombs[0]] {
					shared++
				}
				seen[&tombs[0]] = true
			}
		}
		if shared == 0 {
			t.Fatalf("workers 2 shards %d: no two graveyards share a tombstone array (%d arrays)", shards, len(seen))
		}
		t.Logf("workers 2 shards %d: %d distinct tombstone arrays, %d graveyards sharing one", shards, len(seen), shared)
	}
}
