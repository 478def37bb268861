//go:build scale

package experiments

import (
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// flashCrowdPeers is the total population of BenchmarkFlashCrowd: the
// million-peer deployment of the sharded engine's design target. The world
// needed ~30 GB of RAM while every peer carried two math/rand.NewSource
// states, and about 9.7 GB since views hold only what they keep (extrapolated
// from a 100 000-peer run that peaked at 968 MB, README "Where a sim peer's
// heap goes"), and a cycle takes minutes on one core, far beyond CI budgets,
// so the benchmark is behind the scale build tag (CI only vets it).
const flashCrowdPeers = 1_000_000

// BenchmarkFlashCrowd measures one cycle of a flash crowd hitting that
// deployment: a base population of 15/16 of flashCrowdPeers with the
// remaining sixteenth joining in a burst spread over four cycles from cycle
// 2 — breaking news. The world runs on the sharded engine (gossip crossing
// the routing partitions in pooled codec batches) with the large-scale
// config bounds applied (core.Config.ForPopulation), and publishes only two
// items per cycle so the measured cost is membership and gossip at scale
// rather than an unbounded BEEP flood. Run it with
//
//	go test -tags scale -run '^$' -bench BenchmarkFlashCrowd -benchtime 1x -benchmem -timeout 0 ./internal/experiments/
func BenchmarkFlashCrowd(b *testing.B) {
	const scheduledCycles = 64
	joiners := flashCrowdPeers / 16
	base := flashCrowdPeers - joiners
	w := sim.Communities(base, 4, 2, scheduledCycles, "fc")
	w.Churn = sim.FlashCrowd(2, news.NodeID(base), joiners, joiners/4)
	nodeCfg := core.Config{FLike: 6, RPSViewSize: 20, DescriptorTTL: 15}.ForPopulation(flashCrowdPeers)
	w.NewPeer = func(id news.NodeID) sim.Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, rand.New(rand.NewSource(1000+int64(id))))
	}
	eng := EngineOptions{Workers: hotPathWorkers, Shards: hotPathShards}
	e, _ := w.NewEngine(eng.engine(sim.Config{Seed: 1, Cycles: scheduledCycles, BootstrapDegree: 5}))
	e.Step() // cycle 1: steady state before the crowd hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step() // cycles 2+: the crowd is arriving
	}
}
