package live

import (
	"sync"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

func tinySurvey(seed int64) *dataset.Dataset {
	return dataset.Survey(dataset.SurveyConfig{Seed: seed, Scale: 0.05, Cycles: 25})
}

func liveConfig(cycles int) Config {
	return Config{
		Seed:        1,
		Cycles:      cycles,
		CycleLength: 3 * time.Millisecond,
		NodeConfig:  core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: 25},
	}
}

func TestChannelNetDelivers(t *testing.T) {
	ds := tinySurvey(1)
	net := NewChannelNet(7, 0, 0)
	r := NewRunner(liveConfig(25), ds, net)
	r.Run()
	col := r.Collector()
	if col.Recall() == 0 {
		t.Fatal("live channel run must deliver liked items")
	}
	if col.Messages(0) == 0 && col.TotalMessages() == 0 {
		t.Fatal("traffic must be accounted")
	}
	if col.GossipMessages() == 0 {
		t.Fatal("gossip traffic must be accounted")
	}
}

func TestChannelNetLossReducesTraffic(t *testing.T) {
	ds := tinySurvey(2)
	clean := NewRunner(liveConfig(20), ds, NewChannelNet(7, 0, 0))
	clean.Run()
	lossy := NewRunner(liveConfig(20), ds, NewChannelNet(7, 0.9, 0))
	lossy.Run()
	// With 90% loss recall should collapse relative to the clean run.
	if lossy.Collector().Recall() >= clean.Collector().Recall() {
		t.Fatalf("loss must hurt recall: clean=%v lossy=%v",
			clean.Collector().Recall(), lossy.Collector().Recall())
	}
}

func TestChannelNetLatencyStillDelivers(t *testing.T) {
	ds := tinySurvey(3)
	net := NewChannelNet(7, 0, time.Millisecond)
	r := NewRunner(liveConfig(25), ds, net)
	r.Run()
	if r.Collector().Recall() == 0 {
		t.Fatal("latency must delay, not destroy, delivery")
	}
}

func TestTCPNetDelivers(t *testing.T) {
	// Wall-clock-bound: allow a couple of attempts on loaded machines where
	// TCP dial latency can eat the first cycles.
	for attempt := 0; attempt < 3; attempt++ {
		ds := tinySurvey(4 + int64(attempt))
		net := NewTCPNet(TCPNetConfig{SlowEvery: 0})
		cfg := liveConfig(40)
		cfg.CycleLength = 8 * time.Millisecond
		r := NewRunner(cfg, ds, net)
		r.Run()
		delivered := 0
		for _, id := range r.Collector().NodeIDs() {
			delivered += r.Collector().Node(id).ReceivedLiked
		}
		if delivered > 0 {
			return
		}
	}
	t.Fatal("TCP runs must deliver liked items")
}

func TestTCPNetCongestionDropsOverflow(t *testing.T) {
	// Transport-level check of the PlanetLab congestion model: an
	// overloaded node with queue capacity 2 must drop the overflow of a
	// burst instead of backpressuring the sender.
	net := NewTCPNet(TCPNetConfig{SlowEvery: 1, SlowQueueCap: 2})
	defer net.Close()
	box := net.Register(1)
	it := news.New("t", "d", "l", 1, 0)
	for i := 0; i < 50; i++ {
		sendEnvelope(net, envelope{Kind: wireItem, From: 0, To: 1, Item: core.ItemMessage{Item: it, Profile: profile.New()}})
	}
	// Allow the accept/decode pump to fill the queue.
	time.Sleep(200 * time.Millisecond)
	got := drainBox(box)
	if got == 0 {
		t.Fatal("some messages must arrive")
	}
	if got > 2 {
		t.Fatalf("overflow must be dropped: queue cap 2 but %d delivered", got)
	}
}

func TestTCPNetUnknownDestinationIgnored(t *testing.T) {
	net := NewTCPNet(TCPNetConfig{})
	defer net.Close()
	sendEnvelope(net, envelope{Kind: wireItem, To: 99}) // must not panic
}

func TestEnvelopeSizeAndKinds(t *testing.T) {
	p := profile.New()
	p.Set(1, 1, 1)
	descs := []overlay.Descriptor{{Node: 1, Stamp: 1, Profile: snapshotOf(p)}}
	gossip := envelope{Kind: wireWUPRequest, Descs: descs}
	if len(encodeFrame(gossip)) <= len(encodeFrame(envelope{Kind: wireWUPRequest})) {
		t.Fatal("gossip envelope size must count descriptors")
	}
	it := news.New("t", "d", "l", 1, 0)
	item := envelope{Kind: wireItem, Item: core.ItemMessage{Item: it, Profile: p}}
	if len(encodeFrame(item)) == 0 {
		t.Fatal("item envelope size must be positive")
	}
	kinds := map[wireKind]string{
		wireRPSRequest: "rps-request", wireRPSReply: "rps-reply",
		wireWUPRequest: "wup-request", wireWUPReply: "wup-reply", wireItem: "beep",
	}
	for k, want := range kinds {
		env := envelope{Kind: k}
		if env.kind().String() != want {
			t.Fatalf("kind mapping wrong for %d", k)
		}
	}
}

// TestLiveSoakForgetsExpiredItems runs a fleet at a short profile window for
// many windows and checks, once it has stopped, that every node remembers an
// item it was delivered exactly while the item is inside the window at the
// node's last cycle: Seen is false for every delivery created more than one
// window before it and true for every other.
func TestLiveSoakForgetsExpiredItems(t *testing.T) {
	const window, cycles = 3, 60
	ds := dataset.Survey(dataset.SurveyConfig{Seed: 4, Scale: 0.05, Cycles: cycles})
	created := make(map[news.ID]int64, len(ds.Items))
	for _, it := range ds.Items {
		created[it.News.ID] = it.News.Created
	}
	type receipt struct {
		node news.NodeID
		item news.ID
	}
	var mu sync.Mutex
	var delivered []receipt
	cfg := liveConfig(cycles)
	cfg.NodeConfig.ProfileWindow = window
	cfg.OnDelivery = func(d core.Delivery) {
		mu.Lock()
		delivered = append(delivered, receipt{d.Node, d.Item})
		mu.Unlock()
	}
	r := NewRunner(cfg, ds, NewChannelNet(7, 0, 0))
	r.Run()
	forgotten, kept := 0, 0
	for _, d := range delivered {
		ln := member(r, d.node)
		horizon := ln.cycle - window
		switch seen := ln.node.Seen(d.item); {
		case created[d.item] < horizon && seen:
			t.Errorf("node %d (last cycle %d) still holds item %d created at %d", d.node, ln.cycle, d.item, created[d.item])
		case created[d.item] >= horizon && !seen:
			t.Errorf("node %d (last cycle %d) forgot item %d created at %d, inside its window", d.node, ln.cycle, d.item, created[d.item])
		case seen:
			kept++
		default:
			forgotten++
		}
	}
	t.Logf("%d deliveries forgotten, %d kept", forgotten, kept)
	if forgotten == 0 || kept == 0 {
		t.Fatalf("%d deliveries forgotten, %d kept: the run did not span the window", forgotten, kept)
	}
}
