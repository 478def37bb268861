package live

import (
	"runtime"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// churnProtoRunner builds a live fleet with the churn protocol knobs set.
// DescriptorTTL stays 0 unless the caller sets it, so in the notice tests
// the departure frames are the only mechanism that can evict a leaver.
func churnProtoRunner(seed int64, cycles int, nodeCfg core.Config, cfg func(*Config),
	schedule sim.ChurnSchedule, network Network) *Runner {
	ds := tinySurvey(seed)
	c := Config{
		Seed:        seed,
		Cycles:      cycles,
		CycleLength: 5 * time.Millisecond,
		NodeConfig:  nodeCfg,
		Churn:       schedule,
	}
	if cfg != nil {
		cfg(&c)
	}
	return NewRunner(c, ds, network)
}

// TestLiveDepartureNoticesChannelNet is the live half of the tentpole
// property: with DescriptorTTL disabled — so TTL eviction cannot explain
// anything — a graceful leaver's departure frames must scrub it from every
// online view, while the same world without notices keeps ghost descriptors
// to the end of the run.
//
// The cycle is 20 ms, not the harness's 5 ms. Under the race detector on two
// Ps (2-vCPU box), a 5 ms fleet sends frames faster than some node goroutines
// read them: 9 of 200 runs left a ghost, and each time its holder still had
// its departure frame, or the gossip frame piggybacking the tombstone, among
// 21–121 unread inbox frames when the fleet stopped. At 20 ms every notice was
// read in the cycle it was sent and 0 of 200 runs left a ghost.
func TestLiveDepartureNoticesChannelNet(t *testing.T) {
	base := runtime.NumGoroutine()
	const cycles, leaveAt = 22, 10
	nodeCfg := core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 60}
	var schedule sim.ChurnSchedule
	schedule.Add(leaveAt, sim.ChurnLeave, 3)

	run := func(notices bool, seed int64) *Runner {
		r := churnProtoRunner(seed, cycles, nodeCfg, func(c *Config) {
			c.DepartureNotices = notices
			c.CycleLength = 20 * time.Millisecond
		}, schedule, NewChannelNet(seed, 0, 0))
		r.Run()
		return r
	}

	r := run(true, 21)
	if st, _ := r.State(3); st != sim.Departed {
		t.Fatalf("leaver state %v, want departed", st)
	}
	if r.Collector().Messages(metrics.MsgDeparture) == 0 {
		t.Fatal("graceful leave must emit departure frames")
	}
	if gf := r.GhostFraction(); gf != 0 {
		t.Fatalf("departure notices left ghost fraction %v with TTL eviction disabled", gf)
	}

	ghost := run(false, 21)
	if gf := ghost.GhostFraction(); gf == 0 {
		t.Fatal("without notices and without a TTL the leaver should still haunt online views")
	}
	if ghost.Collector().Messages(metrics.MsgDeparture) != 0 {
		t.Fatal("departure frames must be off by default")
	}
	waitGoroutinesBelow(t, base+2)
}

// TestLiveDepartureNoticesTCPNet repeats the graceful-leave scrub over real
// loopback sockets: the final flush must deliver the departure frames sent
// just before the leaver's endpoints close. Its cycle is 20 ms for the
// reason TestLiveDepartureNoticesChannelNet's is: at 8 ms it failed 29 of 60
// runs under -race beside another package's race tests, at 20 ms 0 of 30.
func TestLiveDepartureNoticesTCPNet(t *testing.T) {
	base := runtime.NumGoroutine()
	nodeCfg := core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 60}
	var schedule sim.ChurnSchedule
	schedule.Add(8, sim.ChurnLeave, 2)

	r := churnProtoRunner(22, 20, nodeCfg, func(c *Config) {
		c.DepartureNotices = true
		c.CycleLength = 20 * time.Millisecond
	}, schedule, NewTCPNet(TCPNetConfig{SlowEvery: 0}))
	r.Run()

	if st, _ := r.State(2); st != sim.Departed {
		t.Fatalf("leaver state %v, want departed", st)
	}
	if r.Collector().Messages(metrics.MsgDeparture) == 0 {
		t.Fatal("departure frames must survive the graceful transport flush")
	}
	if gf := r.GhostFraction(); gf != 0 {
		t.Fatalf("ghost fraction %v after a noticed leave with TTL disabled", gf)
	}
	waitGoroutinesBelow(t, base+2)
}

// TestLiveCrashStillHealsViaTTL: a crash is not graceful, so even with the
// v2 protocol fully enabled no departure frame fires, and the stale
// descriptors age out through the DescriptorTTL path exactly as before.
func TestLiveCrashStillHealsViaTTL(t *testing.T) {
	const ttl = 5
	nodeCfg := core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 60, DescriptorTTL: ttl}
	var schedule sim.ChurnSchedule
	schedule.Add(6, sim.ChurnCrash, 4) // never rejoins

	r := churnProtoRunner(23, 25, nodeCfg, func(c *Config) {
		c.DepartureNotices = true
		c.RefillWatermark = 0.5
	}, schedule, NewChannelNet(23, 0, 0))
	r.Run()

	if st, _ := r.State(4); st != sim.Offline {
		t.Fatalf("crashed node state %v, want offline", st)
	}
	if got := r.Collector().Messages(metrics.MsgDeparture); got != 0 {
		t.Fatalf("a crash must not emit departure frames, saw %d", got)
	}
	if gf := r.GhostFraction(); gf != 0 {
		t.Fatalf("TTL eviction did not heal the views after a crash: ghost fraction %v", gf)
	}
}

// TestLiveRefillAndTimeline drains the fleet's views with a burst of crashes
// under a short TTL, and asserts that (a) the watermark triggers refill
// request/reply traffic, and (b) the per-cycle timeline the controller
// samples is well-formed: cycles strictly increasing, fills in [0,1], and
// the online counts tracking the crashes.
func TestLiveRefillAndTimeline(t *testing.T) {
	const cycles, crashAt, crashes = 28, 8, 10
	nodeCfg := core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 60, DescriptorTTL: 4}
	var schedule sim.ChurnSchedule
	for i := 0; i < crashes; i++ {
		schedule.Add(crashAt, sim.ChurnCrash, news.NodeID(i*2))
	}

	r := churnProtoRunner(24, cycles, nodeCfg, func(c *Config) {
		c.RefillWatermark = 0.7
		c.Timeline = true
	}, schedule, NewChannelNet(24, 0, 0))
	r.Run()

	col := r.Collector()
	if col.Messages(metrics.MsgRefillRequest) == 0 || col.Messages(metrics.MsgRefillReply) == 0 {
		t.Fatalf("refill traffic not recorded: %d requests, %d replies",
			col.Messages(metrics.MsgRefillRequest), col.Messages(metrics.MsgRefillReply))
	}

	tl := r.Timeline()
	if len(tl) == 0 {
		t.Fatal("Timeline enabled but no samples recorded")
	}
	sawCrashDip := false
	for i, s := range tl {
		if i > 0 && s.Cycle <= tl[i-1].Cycle {
			t.Fatalf("timeline cycles not increasing: %d then %d", tl[i-1].Cycle, s.Cycle)
		}
		if s.RPSFill < 0 || s.RPSFill > 1 || s.WUPFill < 0 || s.WUPFill > 1 {
			t.Fatalf("cycle %d: view fills out of range: rps=%v wup=%v", s.Cycle, s.RPSFill, s.WUPFill)
		}
		if s.GhostFraction < 0 || s.GhostFraction > 1 {
			t.Fatalf("cycle %d: ghost fraction out of range: %v", s.Cycle, s.GhostFraction)
		}
		if s.Online > s.Members {
			t.Fatalf("cycle %d: online %d exceeds members %d", s.Cycle, s.Online, s.Members)
		}
		if s.Cycle > crashAt && s.Online == s.Members-crashes {
			sawCrashDip = true
		}
	}
	if !sawCrashDip {
		t.Fatalf("timeline never showed the crash dip; last sample %+v", tl[len(tl)-1])
	}
	end := tl[len(tl)-1]
	if end.Online != r.OnlineCount() {
		t.Fatalf("final timeline sample online=%d, runner reports %d", end.Online, r.OnlineCount())
	}
}
