package sim

import (
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
)

// TestCrashRecovery injects view wipes into half the fleet mid-run: the
// overlay must re-form through gossip and dissemination must keep working —
// the robustness property the paper claims for gossip protocols.
func TestCrashRecovery(t *testing.T) {
	const n, items, cycles = 40, 40, 40
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: cycles}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, 11)
	crashed := false
	e := New(Config{
		Seed:         11,
		Cycles:       cycles,
		Publications: pubs,
		OnCycleEnd: func(e *Engine, now int64) {
			if now == cycles/2 && !crashed {
				crashed = true
				for i, p := range e.Peers() {
					if i%2 == 0 {
						p.(*core.Node).Crash()
					}
				}
			}
		},
	}, peers, col)
	e.Bootstrap()
	e.Run()

	// Views must have re-formed after the crash through gossip exchanges
	// with the surviving half.
	empty := 0
	for _, p := range e.Peers() {
		if p.Overlay().RPS().View().Len() == 0 {
			empty++
		}
	}
	if empty > n/4 {
		t.Fatalf("%d of %d nodes still isolated after recovery window", empty, n)
	}
	if col.Recall() < 0.3 {
		t.Fatalf("recall after mass crash too low: %v", col.Recall())
	}
}

// TestColdStartReintegration: a node that has been inactive for a full
// profile window decays to an empty profile (treated as new) and must
// reintegrate once it resumes, as Section II-E describes.
func TestColdStartReintegration(t *testing.T) {
	const n, items, cycles = 30, 30, 30
	cfg := core.Config{FLike: 4, RPSViewSize: 8, ProfileWindow: 8}
	peers, pubs, col := communityWorld(n, items, cycles, cfg, 12)
	e := New(Config{Seed: 12, Cycles: cycles, Publications: pubs}, peers, col)
	e.Bootstrap()
	for i := 0; i < cycles; i++ {
		e.Step()
	}
	// Profiles hold only in-window entries: nothing older than the window.
	minStamp := e.Now() - cfg.ProfileWindow
	for _, p := range e.Peers() {
		node := p.(*core.Node)
		found := 0
		for _, pub := range pubs {
			if entry, ok := node.UserProfile().Get(pub.Item.ID); ok {
				if entry.Stamp < minStamp {
					t.Fatalf("node %d kept entry older than the window: %+v", node.ID(), entry)
				}
				found++
			}
		}
		if found != node.UserProfile().Len() {
			t.Fatalf("node %d holds %d entries, %d of them on published items", node.ID(), node.UserProfile().Len(), found)
		}
	}
	// Build a fresh joiner from a live host and verify it acquires
	// neighbours within a few cycles.
	host := e.Peers()[0].(*core.Node)
	joiner := core.NewNode(99, "", cfg, core.OpinionFunc(func(news.NodeID, news.ID) bool { return true }),
		rand.New(rand.NewSource(99)))
	joiner.ColdStart(host.RPS().View().Entries(), host.WUP().View().Entries(), e.Now())
	if joiner.UserProfile().Len() == 0 {
		t.Fatal("cold start must seed the profile from popular items")
	}
	e.AddPeer(joiner)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if joiner.WUP().View().Len() == 0 {
		t.Fatal("joiner must acquire WUP neighbours after resuming")
	}
}

// TestLossAppliesToGossipToo: under heavy loss the gossip layers themselves
// degrade (fewer successful exchanges → staler views), visible as fewer
// gossip reply messages than requests.
func TestLossAppliesToGossipToo(t *testing.T) {
	cfg := core.Config{FLike: 3, RPSViewSize: 6}
	peers, pubs, col := communityWorld(20, 10, 15, cfg, 13)
	e := New(Config{Seed: 13, Cycles: 15, Loss: 0.5, Publications: pubs}, peers, col)
	e.Bootstrap()
	e.Run()
	req := col.Messages(metrics.MsgRPSRequest)
	rep := col.Messages(metrics.MsgRPSReply)
	if rep >= req {
		t.Fatalf("half the requests should be lost before generating replies: req=%d rep=%d", req, rep)
	}
}
