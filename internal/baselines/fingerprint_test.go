package baselines

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"whatsup/internal/core"
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
	op := core.OpinionFunc(ds.Likes)
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
		"Gossip/static": "9e8426457e85dffaaf244821d8cd7bab9b657925760603b41cbcc21fb01f4e8c",
		"Gossip/churn":  "402c9fbc015f7bf11a5cd8068ab801f611d839307d88c12fbd04dfa660ed5712",
		"CF-Wup/static": "c88e9553f0f35bdb8d6b273d83096701fcb5ba960070c7110466e51370b53ed3",
		"CF-Wup/churn":  "778c54b3092663f85f66b0757e44b53d90800f6a5a59975a43863345f08b191c",
		"CF-Cos/static": "e02fe69d9816913acb8f9b936564eaf7a765037a4051dce6a6aed07dab336e04",
		"CF-Cos/churn":  "43867729350250542ee4c3b24229e65bb5a08656ecdc329d541de85505665d0f",
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
				if world == "churn" && e.OnlineCount() == len(e.Peers()) {
					t.Fatal("the trace removed nobody; the churn pin would be vacuous")
				}
				if got := collectorHash(col); got != want[name] {
					t.Errorf("%s fingerprint %s, want %s", name, got, want[name])
				}
			})
		}
	}
}
