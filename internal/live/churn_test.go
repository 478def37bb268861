package live

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// waitGoroutinesBelow polls until the process goroutine count drops to the
// limit, failing with a full stack dump if it never does — the live churn
// paths must not leak node, pump or writer goroutines.
func waitGoroutinesBelow(t *testing.T, limit int) {
	t.Helper()
	for start := time.Now(); time.Since(start) < 5*time.Second; {
		if runtime.NumGoroutine() <= limit {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<18)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > limit %d\n%s", runtime.NumGoroutine(), limit, buf[:n])
}

// TestLiveChurnChannelNet is the live churn scenario on the in-memory
// transport: a crash+rejoin, a graceful leave late enough to pin the
// one-horizon healing bound, and a flash crowd of joiners. It asserts the
// lifecycle bookkeeping, that joiners receive post-join items (every item a
// joiner receives is post-join by construction — it did not exist before),
// that departed descriptors have left every online view within one
// DescriptorTTL horizon of the last departure, and that no goroutines leak.
//
// The fleet cycle is 20 ms. At 5 ms the TTL horizon was 30 ms, and under the
// race detector on a loaded machine a node goroutine can go unscheduled for
// longer than that: the rejoined node then woke to a fleet clock past the
// stamps of every descriptor it held, evicted them all in BeginCycle before
// it had pushed once, and stayed isolated, since nobody else held its
// descriptor. Its clock and RPS view size are sampled every fleet cycle and
// printed if its view ends empty.
func TestLiveChurnChannelNet(t *testing.T) {
	base := runtime.NumGoroutine()
	ds := tinySurvey(11) // 24 users, items spread over 25 cycles
	const (
		ttl       = 6
		cycles    = 35
		crashNode = news.NodeID(2)
		leaveNode = news.NodeID(3)
		joiners   = 3
		// The healing bound is per node clock: every view is ghost-free one
		// TTL horizon after the last departure, provided the node ticked
		// since. The schedule leaves the horizon plus generous scheduler
		// slack (a starved goroutine may skip ticks under -race on 1 CPU)
		// before the run ends.
		leaveAt = 12
		cycle   = 20 * time.Millisecond
	)
	var schedule sim.ChurnSchedule
	schedule.Add(4, sim.ChurnCrash, crashNode)
	schedule.Add(9, sim.ChurnRejoin, crashNode)
	schedule.Add(leaveAt, sim.ChurnLeave, leaveNode)
	for j := 0; j < joiners; j++ {
		schedule.Add(7, sim.ChurnJoin, news.NodeID(ds.Users+j))
	}

	nodeCfg := core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 40, DescriptorTTL: ttl}
	r := NewRunner(Config{
		Seed:        1,
		Cycles:      cycles,
		CycleLength: cycle,
		NodeConfig:  nodeCfg,
		Churn:       schedule,
	}, ds, NewChannelNet(7, 0, 0))
	var rejoined []string // per fleet cycle: the rejoined node's state, clock and RPS view size
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(cycle / 2)
		defer tick.Stop()
		for last := int64(-1); ; {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if c := r.Cycle(); c != last {
				if s, err := r.Snapshot(crashNode); err == nil {
					last = c
					rejoined = append(rejoined, fmt.Sprintf("%d:%v/%d/%d", c, s.State, s.Cycle, len(s.RPSView)))
				}
			}
		}
	}()
	r.Run()
	close(stop)
	<-sampled

	if got := r.Stats().Members; got != ds.Users+joiners {
		t.Fatalf("member count %d, want %d", got, ds.Users+joiners)
	}
	if st, ok := r.State(leaveNode); !ok || st != sim.Departed {
		t.Fatalf("leaver state %v, want departed", st)
	}
	if st, ok := r.State(crashNode); !ok || st != sim.Online {
		t.Fatalf("crash+rejoin node state %v, want online", st)
	}
	if r.Node(crashNode).RPS().View().Len() == 0 {
		t.Fatalf("rejoined node must have re-seeded views (fleet cycle:state/clock/RPS size %v)", rejoined)
	}
	if got, want := r.OnlineCount(), ds.Users+joiners-1; got != want {
		t.Fatalf("online count %d, want %d", got, want)
	}
	received := 0
	for j := 0; j < joiners; j++ {
		id := news.NodeID(ds.Users + j)
		if st, ok := r.State(id); !ok || st != sim.Online {
			t.Fatalf("joiner %d state %v, want online", id, st)
		}
		if ns := r.Collector().Node(id); ns != nil {
			received += ns.Received
		}
	}
	if received == 0 {
		t.Fatal("flash-crowd joiners never received a post-join item")
	}
	// Self-healing: the last departure sits one TTL horizon (plus slack)
	// before the end of the run, so no online view may still hold a
	// descriptor of a non-online member.
	if gf := r.GhostFraction(); gf != 0 {
		t.Fatalf("online views not ghost-free at end: fraction %v", gf)
	}
	waitGoroutinesBelow(t, base+2)
}

// TestLiveChurnTCPNet runs a reduced crash+rejoin+leave schedule over real
// loopback sockets: the run must complete, tear down the churned endpoints
// without leaking connection or pump goroutines, and still deliver.
func TestLiveChurnTCPNet(t *testing.T) {
	base := runtime.NumGoroutine()
	ds := tinySurvey(12)
	var schedule sim.ChurnSchedule
	schedule.Add(3, sim.ChurnCrash, 1)
	schedule.Add(8, sim.ChurnRejoin, 1)
	schedule.Add(6, sim.ChurnLeave, 2)
	schedule.Add(7, sim.ChurnJoin, news.NodeID(ds.Users))

	nodeCfg := core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 40, DescriptorTTL: 8}
	r := NewRunner(Config{
		Seed:        2,
		Cycles:      25,
		CycleLength: 8 * time.Millisecond,
		NodeConfig:  nodeCfg,
		Churn:       schedule,
	}, ds, NewTCPNet(TCPNetConfig{SlowEvery: 0}))
	r.Run()

	if st, _ := r.State(2); st != sim.Departed {
		t.Fatalf("leaver state %v, want departed", st)
	}
	if st, _ := r.State(1); st != sim.Online {
		t.Fatalf("rejoiner state %v, want online", st)
	}
	if st, _ := r.State(news.NodeID(ds.Users)); st != sim.Online {
		t.Fatalf("joiner state %v, want online", st)
	}
	if r.Collector().TotalMessages() == 0 {
		t.Fatal("no traffic despite a live TCP fleet")
	}
	waitGoroutinesBelow(t, base+2)
}

// TestLiveChurnInvalidEventsSkipped mirrors the simulator's tolerance of
// stale membership commands: rejoining an online node, crashing an offline
// one, leaving twice and joining an existing id are all no-ops.
func TestLiveChurnInvalidEventsSkipped(t *testing.T) {
	ds := tinySurvey(13)
	var schedule sim.ChurnSchedule
	schedule.Add(2, sim.ChurnRejoin, 0) // rejoin while online: no-op
	schedule.Add(3, sim.ChurnCrash, 4)
	schedule.Add(4, sim.ChurnCrash, 4) // crash while offline: no-op
	schedule.Add(5, sim.ChurnLeave, 5)
	schedule.Add(6, sim.ChurnLeave, 5)           // leave while departed: no-op
	schedule.Add(7, sim.ChurnJoin, 0)            // join of an existing id: no-op
	schedule.Add(8, sim.ChurnRejoin, 5)          // departed members never rejoin
	schedule.Add(9, sim.ChurnCrash, 9999)        // unknown id
	schedule.Add(9, sim.ChurnRejoin, 9998)       // unknown id
	schedule.Add(9, sim.ChurnLeave, news.NoNode) // unknown id

	r := NewRunner(Config{
		Seed:        3,
		Cycles:      12,
		CycleLength: 3 * time.Millisecond,
		NodeConfig:  core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 25},
		Churn:       schedule,
	}, ds, NewChannelNet(7, 0, 0))
	r.Run()

	if got := r.Stats().Members; got != ds.Users {
		t.Fatalf("member count %d changed by invalid events, want %d", got, ds.Users)
	}
	if st, _ := r.State(0); st != sim.Online {
		t.Fatalf("node 0 state %v, want online", st)
	}
	if st, _ := r.State(4); st != sim.Offline {
		t.Fatalf("node 4 state %v, want offline", st)
	}
	if st, _ := r.State(5); st != sim.Departed {
		t.Fatalf("node 5 state %v, want departed", st)
	}
	if _, ok := r.State(9999); ok {
		t.Fatal("unknown id must stay unknown")
	}
}
