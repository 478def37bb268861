package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
)

// heavySchedule builds a join/leave/crash/rejoin mix over a 2-community
// world: trace churn on the base population plus a flash crowd of joiners.
func heavySchedule(n, cycles int) ChurnSchedule {
	s := ChurnTrace(ChurnTraceConfig{
		Seed:           42,
		Nodes:          n,
		From:           int64(cycles / 4),
		To:             int64(cycles - cycles/4),
		CrashRate:      0.01,
		LeaveRate:      0.008,
		Downtime:       4,
		DowntimeJitter: 3,
	})
	s.Merge(FlashCrowd(int64(cycles/3), news.NodeID(n), n/4, 3))
	return s
}

// runChurnWorld runs the community world under a churn schedule with the
// given worker count. Joining peers share the opinions of their id mod n.
func runChurnWorld(n, items, cycles int, loss float64, seed int64, workers int,
	schedule ChurnSchedule) (*metrics.Collector, *Engine) {
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
		it := news.New(fmt.Sprintf("churn-item-%d", k), "d", "l", int64(1+k*cycles/items), source)
		it.ID = news.ID(k)
		pubs = append(pubs, Publication{Cycle: int64(1 + k*cycles/items), Source: source, Item: it})
		col.RegisterItem(it.ID, n/2)
	}
	for i := 0; i < n; i++ {
		col.RegisterNode(news.NodeID(i), items/2)
	}
	e := New(Config{
		Seed: seed, Cycles: cycles, Loss: loss, Publications: pubs,
		BootstrapDegree: 4, Workers: workers, Churn: schedule,
		NewPeer: func(id news.NodeID) Peer {
			return core.NewNode(id, "", cfg, opinions, rand.New(rand.NewSource(seed+int64(id))))
		},
	}, peers, col)
	e.Bootstrap()
	e.Run()
	return col, e
}

// TestChurnDeterminismAcrossWorkerCounts extends the engine's core contract
// to dynamic membership: under a heavy join/leave/crash/rejoin schedule,
// collector fingerprints are bit-identical for Workers = 1, 2, 8.
func TestChurnDeterminismAcrossWorkerCounts(t *testing.T) {
	const n, items, cycles, loss, seed = 120, 40, 40, 0.15, 7
	schedule := heavySchedule(n, cycles)
	if len(schedule.Events) < 20 {
		t.Fatalf("schedule too light to exercise churn: %d events", len(schedule.Events))
	}
	refCol, refEngine := runChurnWorld(n, items, cycles, loss, seed, 1, schedule)
	if refEngine.OnlineCount() == len(refEngine.mem.members) {
		t.Fatal("schedule must leave some members offline or departed")
	}
	if len(refEngine.mem.members) <= n {
		t.Fatal("flash-crowd joins must have registered new members")
	}
	ref := fingerprint(refCol)
	for _, workers := range []int{2, 8} {
		col, e := runChurnWorld(n, items, cycles, loss, seed, workers, schedule)
		if got := fingerprint(col); got != ref {
			t.Fatalf("workers=%d diverged under churn:\n--- want\n%s--- got\n%s", workers, ref, got)
		}
		if e.OnlineCount() != refEngine.OnlineCount() || len(e.mem.members) != len(refEngine.mem.members) {
			t.Fatalf("membership diverged: %d/%d online vs %d/%d",
				e.OnlineCount(), len(e.mem.members), refEngine.OnlineCount(), len(refEngine.mem.members))
		}
	}
}

// TestEmptyChurnScheduleIsIdentity pins the acceptance criterion that a
// churn-free schedule reproduces the static-population results
// bit-identically: same fingerprint as a config without any churn fields.
func TestEmptyChurnScheduleIsIdentity(t *testing.T) {
	const n, items, cycles, loss, seed = 80, 30, 20, 0.1, 3
	plain := fingerprint(runWorldWorkers(n, items, cycles, loss, seed, 2, nil))
	col, _ := runChurnWorld2(n, items, cycles, loss, seed, 2, ChurnSchedule{})
	if got := fingerprint(col); got != plain {
		t.Fatalf("empty churn schedule changed results:\n--- want\n%s--- got\n%s", plain, got)
	}
}

// runChurnWorld2 mirrors runWorldWorkers exactly (same node config, no
// DescriptorTTL) but threads a churn schedule, for the identity test.
func runChurnWorld2(n, items, cycles int, loss float64, seed int64, workers int,
	schedule ChurnSchedule) (*metrics.Collector, *Engine) {
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: int64(cycles)}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, seed)
	e := New(Config{
		Seed: seed, Cycles: cycles, Loss: loss, Publications: pubs,
		BootstrapDegree: 4, Workers: workers, Churn: schedule,
	}, peers, col)
	e.Bootstrap()
	e.Run()
	return col, e
}

// TestViewsSelfHealAfterDepartures is the eviction property test: after 20%
// of the population leaves gracefully, no online view may still hold a
// departed node's descriptor once the eviction horizon has passed.
func TestViewsSelfHealAfterDepartures(t *testing.T) {
	const n, cycles, ttl = 100, 40, 10
	const leaveCycle = 15
	var schedule ChurnSchedule
	for i := 0; i < n/5; i++ { // 20% graceful leaves at one cycle
		schedule.Add(leaveCycle, ChurnLeave, news.NodeID(i*5))
	}
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: cycles, DescriptorTTL: ttl}
	opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
		return int(node)%2 == int(item)%2
	})
	peers := make([]Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = core.NewNode(news.NodeID(i), "", cfg, opinions, rand.New(rand.NewSource(50+int64(i))))
	}
	col := metrics.NewCollector()
	e := New(Config{Seed: 5, Cycles: cycles, BootstrapDegree: 5, Churn: schedule}, peers, col)
	e.Bootstrap()

	ghostCount := func() (ghosts, total int) {
		for _, p := range onlinePeers(e) {
			count := func(id news.NodeID) {
				total++
				if st, ok := e.State(id); !ok || st != Online {
					ghosts++
				}
			}
			for _, d := range p.Overlay().RPS().View().Entries() {
				count(d.Node)
			}
			for _, d := range p.Overlay().WUP().View().Entries() {
				count(d.Node)
			}
		}
		return ghosts, total
	}

	sawGhosts := false
	for c := 0; c < cycles; c++ {
		e.Step()
		ghosts, total := ghostCount()
		if e.Now() > leaveCycle && e.Now() <= leaveCycle+3 && ghosts > 0 {
			sawGhosts = true // departures must actually leave ghosts behind at first
		}
		// The bound: one horizon after the departures (plus the cycle the
		// eviction runs in), every ghost descriptor has aged out.
		if e.Now() > leaveCycle+ttl+1 && ghosts > 0 {
			t.Fatalf("cycle %d: %d/%d descriptors still point at departed nodes (horizon %d, departures at %d)",
				e.Now(), ghosts, total, ttl, leaveCycle)
		}
		if total == 0 && e.Now() > 1 {
			t.Fatalf("cycle %d: online views are empty — eviction is too aggressive", e.Now())
		}
	}
	if !sawGhosts {
		t.Fatal("departures left no ghosts at all; the test exercised nothing")
	}
	if e.OnlineCount() != n-n/5 {
		t.Fatalf("online count %d, want %d", e.OnlineCount(), n-n/5)
	}
}

// TestLifecycleTransitions pins the membership state machine — the rules
// Membership.apply runs for every Config.Churn event — and its
// invalid-transition handling.
func TestLifecycleTransitions(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 6}
	peers, _, col := communityWorld(20, 0, 10, cfg, 4)
	joiner := core.NewNode(500, "", cfg, core.OpinionFunc(func(news.NodeID, news.ID) bool { return true }),
		rand.New(rand.NewSource(500)))
	e := New(Config{Seed: 4, Cycles: 10, BootstrapDegree: 3, NewPeer: func(news.NodeID) Peer { return joiner }}, peers, col)
	e.Bootstrap()
	e.Step()
	apply := func(kind ChurnEventKind, id news.NodeID) bool {
		return e.mem.apply(engineSide{e}, ChurnEvent{Cycle: e.now, Kind: kind, Node: id}, e.now)
	}

	if st, ok := e.State(0); !ok || st != Online {
		t.Fatalf("initial state = %v, %v", st, ok)
	}
	if !apply(ChurnCrash, 0) {
		t.Fatal("crash of an online member must succeed")
	}
	if apply(ChurnCrash, 0) {
		t.Fatal("crashing an offline member must be a no-op")
	}
	if st, _ := e.State(0); st != Offline {
		t.Fatalf("state after crash = %v", st)
	}
	if n := e.Peer(0).(*core.Node); n.RPS().View().Len() != 0 {
		t.Fatal("crash must wipe views")
	}
	if e.OnlineCount() != 19 {
		t.Fatalf("online count %d, want 19", e.OnlineCount())
	}
	if !apply(ChurnRejoin, 0) {
		t.Fatal("rejoin of an offline member must succeed")
	}
	if apply(ChurnRejoin, 0) {
		t.Fatal("rejoining an online member must be a no-op")
	}
	if n := e.Peer(0).(*core.Node); n.RPS().View().Len() == 0 {
		t.Fatal("rejoin must re-seed views from the online population")
	}
	if !apply(ChurnLeave, 5) {
		t.Fatal("leave of an online member must succeed")
	}
	if apply(ChurnLeave, 5) {
		t.Fatal("leaving a departed member must be a no-op")
	}
	if apply(ChurnRejoin, 5) {
		t.Fatal("a departed member must not rejoin")
	}
	if apply(ChurnLeave, 999) || apply(ChurnCrash, 999) || apply(ChurnRejoin, 999) {
		t.Fatal("unknown ids must be rejected")
	}

	// A join cold-starts from a live host.
	if !apply(ChurnJoin, 500) {
		t.Fatal("join of a fresh id must succeed")
	}
	if apply(ChurnJoin, 500) {
		t.Fatal("joining an existing id must be a no-op")
	}
	if joiner.RPS().View().Len() == 0 || joiner.WUP().View().Len() == 0 {
		t.Fatal("join must bootstrap both views from the online population")
	}
	// (This world publishes no items, so the inherited views hold empty
	// profiles and the cold-start rating step has nothing popular to rate;
	// the profile side of ColdStart is covered by the core package tests.)
	e.Run()
}

// TestPeersReturnsACopy pins the satellite fix: mutating the slice returned
// by Peers must not affect the engine.
func TestPeersReturnsACopy(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 6}
	peers, _, col := communityWorld(10, 0, 5, cfg, 4)
	e := New(Config{Seed: 4, Cycles: 5}, peers, col)
	got := e.Peers()
	got[0] = nil
	got[1] = got[2]
	if e.Peer(0) == nil || e.Peers()[0] == nil {
		t.Fatal("mutating the returned slice corrupted the engine")
	}
	if e.Peers()[1].Overlay().ID() != 1 {
		t.Fatal("engine slice aliased by caller mutation")
	}
}

// TestOfflinePublicationsAreDropped: a publication whose source is offline
// at its cycle never fires, like a post from a crashed client.
func TestOfflinePublicationsAreDropped(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 6}
	opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool { return true })
	const n = 20
	peers := make([]Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = core.NewNode(news.NodeID(i), "", cfg, opinions, rand.New(rand.NewSource(int64(i))))
	}
	col := metrics.NewCollector()
	it := news.New("solo", "d", "l", 5, 3)
	it.ID = 1
	col.RegisterItem(it.ID, n)
	var schedule ChurnSchedule
	schedule.Add(2, ChurnCrash, 3)
	e := New(Config{
		Seed: 9, Cycles: 10, BootstrapDegree: 4, Churn: schedule,
		Publications: []Publication{{Cycle: 5, Source: 3, Item: it}},
	}, peers, col)
	e.Bootstrap()
	e.Run()
	if col.Messages(metrics.MsgBeep) != 0 {
		t.Fatalf("crashed source must not publish; saw %d BEEP messages", col.Messages(metrics.MsgBeep))
	}
	if st := col.Item(it.ID); st.Reached != 0 {
		t.Fatalf("item reached %d nodes despite its source being offline", st.Reached)
	}
}

// onlinePeers returns the currently online peers in registration order.
func onlinePeers(e *Engine) []Peer {
	var out []Peer
	for _, p := range e.Peers() {
		if st, _ := e.State(p.Overlay().ID()); st == Online {
			out = append(out, p)
		}
	}
	return out
}
