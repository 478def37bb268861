package live

import (
	"runtime"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/news"
	"whatsup/internal/prng"
)

// halvesPartition cuts the fleet into two halves for the [start, heal)
// cycle window.
func halvesPartition(n int, start, heal int64) *faultnet.Policy {
	groups := make(map[news.NodeID]int, n)
	for i := 0; i < n; i++ {
		if i < n/2 {
			groups[news.NodeID(i)] = 0
		} else {
			groups[news.NodeID(i)] = 1
		}
	}
	p := faultnet.New()
	p.AddPartition(faultnet.Partition{Groups: groups, Start: start, Heal: heal})
	return p
}

// crossHalfEdges counts RPS view entries spanning the two halves.
func crossHalfEdges(r *Runner, n int) int {
	cross := 0
	for i := 0; i < n; i++ {
		node := r.Node(news.NodeID(i))
		if node == nil {
			continue
		}
		for _, d := range node.RPS().View().Entries() {
			if (i < n/2) != (int(d.Node) < n/2) {
				cross++
			}
		}
	}
	return cross
}

// runLivePartition drives a live fleet through a mid-run 2-way partition on
// the given transport and asserts the shared robustness contract: the
// timeline records the cut opening and healing, the overlays span the former
// cut again by the end, traffic flowed, and no goroutines leak.
func runLivePartition(t *testing.T, makeNet func() Network) {
	t.Helper()
	base := runtime.NumGoroutine()
	const (
		start  = 5
		heal   = 14
		cycles = 30
	)
	ds := tinySurvey(14)
	links := halvesPartition(ds.Users, start, heal)
	nw := makeNet()
	nodeCfg := core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 40}
	r := NewRunner(Config{
		Seed:        4,
		Cycles:      cycles,
		CycleLength: 5 * time.Millisecond,
		NodeConfig:  nodeCfg,
		Timeline:    true,
		Links:       links,
	}, ds, nw)
	type policied interface {
		SetPolicy(p *faultnet.Policy, clock func() int64)
	}
	nw.(policied).SetPolicy(links, r.Cycle)
	r.Run()

	sawCut, sawHealed := false, false
	for _, s := range r.Timeline() {
		switch {
		case s.Cycle >= start && s.Cycle < heal:
			if s.PartitionsActive == 1 {
				sawCut = true
			}
		case s.Cycle >= heal:
			if s.PartitionsActive != 0 {
				t.Fatalf("cycle %d still reports %d active partitions after the heal", s.Cycle, s.PartitionsActive)
			}
			sawHealed = true
		}
	}
	if !sawCut {
		t.Fatal("timeline never recorded the partition as active")
	}
	if !sawHealed {
		t.Fatal("timeline has no post-heal samples")
	}
	if cross := crossHalfEdges(r, ds.Users); cross == 0 {
		t.Fatal("views never re-knit across the healed partition")
	}
	if r.Collector().TotalMessages() == 0 {
		t.Fatal("no traffic despite a live fleet")
	}
	waitGoroutinesBelow(t, base+2)
}

// TestLivePartitionHealChannelNet is the partition-heal scenario on the
// in-memory transport.
func TestLivePartitionHealChannelNet(t *testing.T) {
	runLivePartition(t, func() Network { return NewChannelNet(7, 0, 0) })
}

// TestLivePartitionHealTCPNet is the partition-heal scenario over real
// loopback sockets, with a small default latency rule active so the delayed
// writer path runs throughout — the goroutine pin at the end proves delayed
// sends are tracked and drained, not leaked.
func TestLivePartitionHealTCPNet(t *testing.T) {
	runLivePartition(t, func() Network {
		return NewTCPNet(TCPNetConfig{SlowEvery: 0, Seed: 7})
	})
}

// TestTCPNetDelayedSendDelivers pins the writer-boundary delay path of the
// TCP transport: a policy with per-link latency must deliver every envelope
// (late, not lost), and Close must wait out the in-flight delay goroutines.
func TestTCPNetDelayedSendDelivers(t *testing.T) {
	base := runtime.NumGoroutine()
	const n = 20
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0, Seed: 3})
	p := faultnet.New().SetRule(faultnet.ClassDefault, faultnet.ClassDefault, faultnet.Rule{Base: 3 * time.Millisecond, Jitter: 2 * time.Millisecond})
	tn.SetPolicy(p, nil)
	box := tn.Register(1)
	for i := 0; i < n; i++ {
		sendEnvelope(tn, testItemEnvelope(i, 1))
	}
	deadline := time.Now().Add(5 * time.Second)
	got := 0
	for got < n && time.Now().Before(deadline) {
		got += drainBox(box)
		time.Sleep(2 * time.Millisecond)
	}
	if got != n {
		t.Fatalf("delayed sends delivered %d/%d envelopes", got, n)
	}
	tn.Close()
	waitGoroutinesBelow(t, base+2)
}

// TestTCPNetPolicyLossDrops pins the drop path: a link rule with Loss=1
// suppresses every envelope without queueing or leaking anything.
func TestTCPNetPolicyLossDrops(t *testing.T) {
	base := runtime.NumGoroutine()
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0, Seed: 5})
	p := faultnet.New().SetRule(faultnet.ClassDefault, faultnet.ClassDefault, faultnet.Rule{Loss: 1})
	tn.SetPolicy(p, nil)
	box := tn.Register(1)
	for i := 0; i < 10; i++ {
		sendEnvelope(tn, testItemEnvelope(i, 1))
	}
	time.Sleep(20 * time.Millisecond)
	if got := drainBox(box); got != 0 {
		t.Fatalf("lossy policy delivered %d envelopes, want 0", got)
	}
	tn.Close()
	waitGoroutinesBelow(t, base+2)
}

// TestLinkFaultsBytesPerLink bounds what a directed link costs for the rest
// of a fleet's life once a lossy or jittery policy has drawn on it: the map
// is never evicted and n nodes can touch n·(n−1) links, so a link holds its
// stream by value (8 bytes plus its map slot), not a 4.9 KB math/rand state.
// The draws themselves stay per link and in order: loss, then jitter.
func TestLinkFaultsBytesPerLink(t *testing.T) {
	const nodes, maxBytesPerLink = 100, 64
	rule := faultnet.Rule{Loss: 0.25, Jitter: time.Millisecond}
	f := &linkFaults{seed: 9}
	f.SetPolicy(faultnet.New().SetRule(faultnet.ClassDefault, faultnet.ClassDefault, rule), nil)
	before := collectedHeap()
	for from := news.NodeID(0); from < nodes; from++ {
		for to := news.NodeID(0); to < nodes; to++ {
			f.decide(from, to, 100)
		}
	}
	perLink := float64(collectedHeap()-before) / float64(len(f.links))
	if len(f.links) != nodes*nodes {
		t.Fatalf("%d link streams, want %d", len(f.links), nodes*nodes)
	}
	t.Logf("%.1f bytes retained per link over %d links", perLink, len(f.links))
	if perLink > maxBytesPerLink {
		t.Fatalf("%.1f bytes retained per link, want <= %d", perLink, maxBytesPerLink)
	}

	// Link 3→4 again, against its stream replayed by hand.
	twin := prng.Source(faultnet.LinkSeed(9, 3, 4))
	for i := 0; i < 50; i++ {
		wantDrop := twin.Float64() < rule.Loss
		var wantDelay time.Duration
		if !wantDrop {
			wantDelay = rule.Delay(100, twin.Float64())
		}
		if i == 0 {
			continue // drawn in the sweep above
		}
		if drop, delay := f.decide(3, 4, 100); drop != wantDrop || delay != wantDelay {
			t.Fatalf("draw %d on link 3→4: drop %v delay %v, want %v %v", i, drop, delay, wantDrop, wantDelay)
		}
	}
	runtime.KeepAlive(f)
}
