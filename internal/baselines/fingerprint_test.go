package baselines

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// collectorHash digests everything a run leaves in its collector: quality
// figures, per-kind message and byte counts, and every node's delivery
// counters. Two runs hash equal only if they made the same draws.
func collectorHash(c *metrics.Collector) string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%v R=%v F1=%v\n", c.Precision(), c.Recall(), c.F1())
	for k := metrics.MsgBeep; k <= metrics.MsgRefillReply; k++ {
		fmt.Fprintf(&b, "%v:%d/%d\n", k, c.Messages(k), c.Bytes(k))
	}
	for _, id := range c.NodeIDs() {
		ns := c.Node(id)
		fmt.Fprintf(&b, "node%d:%d,%d,%d\n", id, ns.Interested, ns.Received, ns.ReceivedLiked)
	}
	h := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(h[:])
}

// TestBaselineFingerprintsPinned pins Gossip, CF-Wup and CF-Cos on the
// survey workload — static, and under a crash/leave/rejoin trace — to the
// collector hashes captured at 223a976, when each baseline still hand-rolled
// its own overlay state. They prove the peers built on core.Substrate make
// the same draws in the same order as the originals.
func TestBaselineFingerprintsPinned(t *testing.T) {
	ds := dataset.Survey(dataset.SurveyConfig{Seed: 5, Scale: 0.3})
	op := ds.Opinions()
	build := map[string]func(id news.NodeID, window int64, rng *rand.Rand) sim.Peer{
		"Gossip": func(id news.NodeID, _ int64, rng *rand.Rand) sim.Peer { return NewGossip(id, 4, 0, op, rng) },
		"CF-Wup": func(id news.NodeID, w int64, rng *rand.Rand) sim.Peer {
			return NewCF(id, 8, 0, w, profile.WUP{}, op, rng)
		},
		"CF-Cos": func(id news.NodeID, w int64, rng *rand.Rand) sim.Peer {
			return NewCF(id, 8, 0, w, profile.Cosine{}, op, rng)
		},
	}
	churn := sim.ChurnTrace(sim.ChurnTraceConfig{
		Seed: 3, Nodes: ds.Users, From: 5, To: int64(ds.Cycles) - 5,
		CrashRate: 0.02, LeaveRate: 0.005, Downtime: 4, DowntimeJitter: 3,
	})
	want := map[string]string{
		"Gossip/static": "89f9a71331d8a511284655819832b2e33ecf79e535ed13fa018b8f4891b6aeef",
		"Gossip/churn":  "21f53e8abe4dd53071ca502d09116e58db987f83d0f915ab54bae4a39c9630c4",
		"CF-Wup/static": "1fe446fd16ce8577317fb0dfe3a9af3e5f0218dc6c4f9a4b26cfebb027705a26",
		"CF-Wup/churn":  "5ddf497cf9ef6d957f8553fe2f17cc2d18ef06188d54b131717367bfa602546b",
		"CF-Cos/static": "0098afefa8e670fd47a776cd6bbbfc61a3aad3569bbe756061d2a11838a9690b",
		"CF-Cos/churn":  "d8b91f82bd017dcac404cd75f3c778fa13cf13d56024bc487783b054a150dc90",
	}
	for _, alg := range []string{"Gossip", "CF-Wup", "CF-Cos"} {
		for _, world := range []string{"static", "churn"} {
			name := alg + "/" + world
			t.Run(name, func(t *testing.T) {
				// The churn world runs CF without a profile window (one longer
				// than the run): a rejoining peer now purges its profile at the
				// resume time like core.Node always did, where the old CF waited
				// for its next BeginCycle, so a same-cycle rejoiner could sample
				// its unpurged profile. With nothing to purge the two agree and
				// the pin isolates every other rule; the static world keeps the
				// default window.
				window := int64(0)
				if world == "churn" {
					window = int64(ds.Cycles) + 1
				}
				peers := make([]sim.Peer, ds.Users)
				for i := range peers {
					peers[i] = build[alg](news.NodeID(i), window, rand.New(rand.NewSource(5_000_003+int64(i))))
				}
				col := metrics.NewCollector()
				var pubs []sim.Publication
				for i := range ds.Items {
					it := ds.Items[i]
					pubs = append(pubs, sim.Publication{Cycle: it.Cycle, Source: it.News.Source, Item: it.News})
					col.RegisterItem(it.News.ID, it.Interested)
				}
				for u := 0; u < ds.Users; u++ {
					col.RegisterNode(news.NodeID(u), ds.UserInterestCount(news.NodeID(u)))
				}
				cfg := sim.Config{Seed: 5, Cycles: ds.Cycles, LossRate: 0.05, Publications: pubs}
				if world == "churn" {
					cfg.Churn = churn
				}
				e := sim.New(cfg, peers, col)
				e.Bootstrap()
				e.Run()
				if col.Messages(metrics.MsgBeep) == 0 || col.Recall() == 0 {
					t.Fatal("the run disseminated nothing; the pin would be vacuous")
				}
				if world == "churn" && e.OnlineCount() == e.MemberCount() {
					t.Fatal("the trace removed nobody; the churn pin would be vacuous")
				}
				if got := collectorHash(col); got != want[name] {
					t.Errorf("%s fingerprint %s, want %s", name, got, want[name])
				}
			})
		}
	}
}
