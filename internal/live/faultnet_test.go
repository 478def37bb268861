package live

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/news"
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
	nodeCfg := core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 40}
	r := NewRunner(Config{
		Seed:        4,
		Cycles:      cycles,
		CycleLength: 5 * time.Millisecond,
		NodeConfig:  nodeCfg,
		Timeline:    true,
		Links:       halvesPartition(ds.Users, start, heal),
	}, ds, makeNet())
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
// loopback sockets.
func TestLivePartitionHealTCPNet(t *testing.T) {
	runLivePartition(t, func() Network { return NewTCPNet(TCPNetConfig{SlowEvery: 0}) })
}

// everyLink is a policy whose one rule governs every link.
func everyLink(r faultnet.Rule) *faultnet.Policy {
	return faultnet.New().SetRule(faultnet.ClassDefault, faultnet.ClassDefault, r)
}

// TestTCPNetDelayedSendDelivers pins the writer-boundary delay path of the
// TCP transport: a policy with per-link latency must deliver every envelope
// (late, not lost), and Close must wait out the in-flight delay goroutines.
func TestTCPNetDelayedSendDelivers(t *testing.T) {
	base := runtime.NumGoroutine()
	const n = 20
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0})
	tn.bind(3, nil, everyLink(faultnet.Rule{Base: 3 * time.Millisecond, Jitter: 2 * time.Millisecond}))
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
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0})
	tn.bind(5, nil, everyLink(faultnet.Rule{Loss: 1}))
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

// gridFrames builds, for each directed link among nodes, one envelope of
// every gossip kind and one BEEP envelope for each of items distinct items.
func gridFrames(nodes, items int) []envelope {
	var envs []envelope
	for from := news.NodeID(0); from < news.NodeID(nodes); from++ {
		for to := news.NodeID(0); to < news.NodeID(nodes); to++ {
			for k := wireRPSRequest; k <= wireRefillReply; k++ {
				if k != wireItem {
					envs = append(envs, envelope{Kind: k, From: from, To: to})
					continue
				}
				for i := 0; i < items; i++ {
					env := handoffEnvelope(i)
					env.From, env.To = from, to
					envs = append(envs, env)
				}
			}
		}
	}
	return envs
}

// TestLinkDecisionIsTheSimulatorsDraw holds the live drop decision to the
// simulator's call (Engine.linkDropped): Policy.Drop(seed, from, to, cycle,
// kind+1, item), with the item id of a BEEP frame and 0 for gossip, over a
// grid of links, cycles, message kinds and items, under a policy with two
// link classes, a loss on each and a partition for part of the run.
func TestLinkDecisionIsTheSimulatorsDraw(t *testing.T) {
	const seed, nodes = 31, 8
	ids := make([]news.NodeID, nodes)
	for i := range ids {
		ids[i] = news.NodeID(i)
	}
	p := faultnet.Stragglers(ids, 0.4, seed, faultnet.Rule{Loss: 0.6, Jitter: time.Millisecond})
	p.SetRule(faultnet.ClassDefault, faultnet.ClassDefault, faultnet.Rule{Loss: 0.2})
	p.AddPartition(faultnet.Partition{Groups: map[news.NodeID]int{0: 0, 1: 1, 2: 0, 3: 1}, Start: 3, Heal: 5})
	var cycle int64
	f := linkFaults{}
	f.bind(seed, func() int64 { return cycle }, p)
	drops, kept := 0, 0
	for _, env := range gridFrames(nodes, 4) {
		payload := appendEnvelope(nil, env)
		var item uint64
		if env.Kind == wireItem {
			item = uint64(env.Item.Item.ID)
		}
		for cycle = 0; cycle < 7; cycle++ {
			want := p.Drop(seed, env.From, env.To, cycle, uint64(env.kind())+1, item)
			if got, _ := f.decide(env.From, env.To, payload); got != want {
				t.Fatalf("%v frame %d→%d, item %x, cycle %d: dropped %v, the simulator's draw says %v",
					env.kind(), env.From, env.To, item, cycle, got, want)
			}
			if want {
				drops++
			} else {
				kept++
			}
		}
	}
	if drops == 0 || kept == 0 {
		t.Fatalf("%d drops and %d kept frames: the grid does not exercise both outcomes", drops, kept)
	}
}

// TestLinkDecisionAllocatesNothing: the link evaluator holds no state per
// link, so a decision on a lossy, jittery link allocates nothing and a
// fleet's worth of links retains no byte a link.
func TestLinkDecisionAllocatesNothing(t *testing.T) {
	const nodes = 100
	f := linkFaults{}
	f.bind(9, nil, everyLink(faultnet.Rule{Loss: 0.25, Jitter: time.Millisecond}))
	payload := appendEnvelope(nil, handoffEnvelope(7))
	sweep := func() {
		for from := news.NodeID(0); from < nodes; from++ {
			for to := news.NodeID(0); to < nodes; to++ {
				f.decide(from, to, payload)
			}
		}
	}
	before := collectedHeap()
	if allocs := testing.AllocsPerRun(1, sweep); allocs != 0 {
		t.Fatalf("%v allocations per sweep of %d links, want 0", allocs, nodes*nodes)
	}
	retained := collectedHeap() - before
	t.Logf("%d bytes retained over %d links", retained, nodes*nodes)
	if perLink := retained / (nodes * nodes); perLink > 0 {
		t.Fatalf("%d bytes retained per link, want 0", perLink)
	}
	runtime.KeepAlive(&f)
}

// sendFrames sends n item frames with distinct keys — frame i carries its
// own item, from node 10+i%16 to node i%4 — dealt round-robin to the given
// number of sending goroutines, closes the transport and reports which
// frames arrived.
func sendFrames(net Network, n, senders int) []bool {
	boxes := make([]*inbox, 4)
	for i := range boxes {
		boxes[i] = net.Register(news.NodeID(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += senders {
				env := handoffEnvelope(i)
				env.From, env.To = news.NodeID(10+i%16), news.NodeID(i%4)
				sendEnvelope(net, env)
			}
		}(g)
	}
	wg.Wait()
	net.Close()
	arrived := make([]bool, n)
	for _, box := range boxes {
		for buf, _ := box.take(); buf != nil; buf, _ = box.take() {
			var env envelope
			if decodePayload(&env, *buf, nil, nil) == nil {
				arrived[env.Item.Hops] = true
			}
			putBuf(buf)
		}
	}
	return arrived
}

// TestLinkLossConformance: at 2 % loss, whether it is ChannelNet's own or a
// Config.Links rule's, each transport drops 2 % ± 3σ of N frames with
// distinct keys, and under one seed all of them drop the same frames.
func TestLinkLossConformance(t *testing.T) {
	const n, loss = 10000, 0.02
	links := everyLink(faultnet.Rule{Loss: loss})
	var first []bool
	for name, mk := range map[string]func() Network{
		"ChannelNet":       func() Network { net := NewChannelNet(0, loss, 0); net.bind(11, nil, nil); return net },
		"ChannelNet/Links": func() Network { net := NewChannelNet(0, 0, 0); net.bind(11, nil, links); return net },
		"TCPNet/Links": func() Network {
			net := NewTCPNet(TCPNetConfig{QueueCap: n, MaxPendingBytes: 64 << 20})
			net.bind(11, nil, links)
			return net
		},
	} {
		t.Run(name, func(t *testing.T) {
			arrived := sendFrames(mk(), n, 1)
			if first == nil {
				first = arrived
			}
			dropped := 0
			for i, ok := range arrived {
				if ok != first[i] {
					t.Fatalf("frame %d: arrived %v here, %v on another transport", i, ok, first[i])
				}
				if !ok {
					dropped++
				}
			}
			want, sigma := n*loss, math.Sqrt(n*loss*(1-loss))
			t.Logf("%d of %d frames dropped, want %.0f ± %.0f", dropped, n, want, 3*sigma)
			if math.Abs(float64(dropped)-want) > 3*sigma {
				t.Fatalf("%d of %d frames dropped, want %.0f ± %.0f", dropped, n, want, 3*sigma)
			}
		})
	}
}

// TestLinkDropsIndependentOfInterleaving: one frame set, sent from one
// goroutine and from eight, drops the identical frames on either transport.
// The draw is keyed by the frame, not by the order senders reach the
// transport in.
func TestLinkDropsIndependentOfInterleaving(t *testing.T) {
	const n = 3000
	links := everyLink(faultnet.Rule{Loss: 0.3})
	for name, mk := range map[string]func() Network{
		"ChannelNet": func() Network { net := NewChannelNet(0, 0.3, 0); net.bind(13, nil, nil); return net },
		"TCPNet/Links": func() Network {
			net := NewTCPNet(TCPNetConfig{QueueCap: n, MaxPendingBytes: 64 << 20})
			net.bind(13, nil, links)
			return net
		},
	} {
		t.Run(name, func(t *testing.T) {
			serial, parallel := sendFrames(mk(), n, 1), sendFrames(mk(), n, 8)
			dropped := 0
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("frame %d: arrived %v from one sender, %v from eight", i, serial[i], parallel[i])
				}
				if !serial[i] {
					dropped++
				}
			}
			if dropped == 0 || dropped == n {
				t.Fatalf("%d of %d frames dropped: nothing to compare", dropped, n)
			}
		})
	}
}
