package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
)

// churnCycleWorld builds the churned world of internal/experiments'
// hotPathWorld (the hotpath/churn-cycle pin steps it): peers in 4 interest
// communities, 4 items a cycle, about 1 % of the population crashing per
// cycle and back after 5, descriptor-TTL eviction on.
func churnCycleWorld(peers, cycles, workers, shards int) *Engine {
	e, _ := leaverWorld(peers, cycles, workers, shards, 0)
	return e
}

// leaverWorld is churnCycleWorld plus graceful leaves at leaveRate a
// peer-cycle which, when leaveRate > 0, announce themselves with departure
// notices: the world whose graveyards fill and whose gossip legs carry
// tombstones.
func leaverWorld(peers, cycles, workers, shards int, leaveRate float64) (*Engine, *metrics.Collector) {
	w := Communities(peers, 4, 4, cycles, "hp")
	nodeCfg := core.Config{FLike: 6, RPSViewSize: 20, DescriptorTTL: 15}.ForPopulation(peers)
	w.Churn = ChurnTrace(ChurnTraceConfig{Seed: 7, Nodes: peers, From: 1, To: int64(cycles), CrashRate: 0.01, LeaveRate: leaveRate, Downtime: 5})
	w.NewPeer = func(id news.NodeID) Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, rand.New(rand.NewSource(1000+int64(id))))
	}
	return w.NewEngine(Config{Seed: 1, Cycles: cycles, BootstrapDegree: 5, Workers: workers, Shards: shards, DepartureNotices: leaveRate > 0})
}

// TestStepReleasesScratch is the engine half of "nothing pinned past its
// use": the BEEP hop buffers — envelopes and message tables, the current
// hop's and every worker's next-hop one — and the gossip exchange table keep
// their capacity between cycles but not their contents, and the per-worker
// push and reply arenas keep neither, so a finished cycle holds no item
// profile, push, reply or tombstone slice alive.
func TestStepReleasesScratch(t *testing.T) {
	const cycles = 12
	for _, c := range []struct{ workers, shards int }{{1, 1}, {2, 4}} {
		e := churnCycleWorld(200, cycles, c.workers, c.shards)
		for e.Now() < cycles {
			e.Step()
			allZero := func(name string, buf any) {
				v := reflect.ValueOf(buf)
				for i := 0; i < v.Len(); i++ {
					if !v.Index(i).IsZero() {
						t.Fatalf("workers %d shards %d cycle %d: %s[%d] of %d still set after Step: %+v",
							c.workers, c.shards, e.Now(), name, i, v.Len(), v.Index(i))
					}
				}
			}
			allZero("hop envelopes", e.hop.envs[:cap(e.hop.envs)])
			allZero("hop messages", e.hop.msgs[:cap(e.hop.msgs)])
			allZero("exs", e.exs[:cap(e.exs)])
			if len(e.pushArenas) != c.workers || len(e.replyArenas) != c.workers {
				t.Fatalf("workers %d: %d push and %d reply arenas, want one of each per worker", c.workers, len(e.pushArenas), len(e.replyArenas))
			}
			for w := range e.pushArenas {
				if e.pushArenas[w].descs != nil || e.replyArenas[w].descs != nil {
					t.Fatalf("workers %d shards %d cycle %d: worker %d's leg arena survived the round", c.workers, c.shards, e.Now(), w)
				}
				if e.pushArenas[w].hint == [2]int{} || e.replyArenas[w].hint == [2]int{} {
					t.Fatalf("workers %d shards %d cycle %d: worker %d built no leg; the test checks nothing", c.workers, c.shards, e.Now(), w)
				}
			}
			if len(e.next) != c.workers {
				t.Fatalf("workers %d: %d next-hop buffers, want one per worker", c.workers, len(e.next))
			}
			sent, tabled := 0, 0
			for w := range e.next {
				nx := &e.next[w]
				allZero("next-hop envelopes", nx.envs[:cap(nx.envs)])
				allZero("next-hop messages", nx.msgs[:cap(nx.msgs)])
				sent += cap(nx.envs)
				tabled += cap(nx.msgs)
			}
			if cap(e.hop.envs) == 0 || cap(e.hop.msgs) == 0 || cap(e.exs) == 0 || sent == 0 || tabled == 0 {
				t.Fatalf("workers %d shards %d cycle %d: a scratch buffer was never used; the test checks nothing", c.workers, c.shards, e.Now())
			}
		}
	}
}

// leaverRate is the leave rate of TestSimHeapPerPeerBudget's graveyard
// case, a peer-cycle: five times the benchmark's sim-churn rate, so that the
// tombstone sets are a share of the heap its 1.25 × margin can see.
const leaverRate = 0.005

// collectedHeap forces a collection and returns the bytes that survive it.
func collectedHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSimHeapPerPeerBudget makes a retention regression fail tier-1, not only
// the benchmark's heap_kb_per_peer: the live heap a 1000-peer churn-cycle
// world adds, read the way the benchmark reads it (after a forced collection,
// the engine still reachable), must stay within 1.25 × the recorded figure.
// The Workers 2 × Shards 4 case runs the merges on two worker goroutines that
// borrow from the one merge-scratch pool. The third case adds graceful leaves
// announced by departure notices (leaverRate), which the other two never
// see: its graveyards fill, and tombstones ride every gossip leg.
//
// Recorded (go1.24, linux/amd64): 3.08 KB/peer serial and 6.68 KB/peer at
// Workers 2 × Shards 4, with 24-byte descriptors, each WUP view's similarity
// cache holding only its capacity survivors, BEEP targets drawn straight
// into the sends and a BEEP hop storing each forwarded message once under
// 24-byte envelopes. The regressions below were measured on the earlier hop,
// whose 128-byte envelopes each held their message and read 3.32 and 6.89:
// descriptors carrying an always-empty address string (40 bytes each)
// measured 3.95 and 7.68; a 64-slot score ring per WUP view and a
// targets slice kept per node, 5.27 and 9.04; a seen map that never forgets,
// 6.03 and 9.87; descriptor snapshots as decoded *Profile clones sharing
// their profile's entry array, 7.95 and 14.94; views keeping merge scratch
// and a doubled entry array between merges, with map-backed graveyards, 12.17
// and 19.16; one math/rand.NewSource state coming back per peer is +4.9 KB.
// The serial case's 1.25 × margin catches every one of them but the address,
// which overlay's TestDescriptorSize pins instead, and a return to fat
// envelopes, which TestHopShapePinned pins. TestSimSoakHeapFlat catches the
// seen map too: a set that never forgets grows every window.
//
// Recorded for the graveyard case: 3.32 KB/peer with immutable tombstone
// sets that receivers adopt and share. With the 128-byte envelopes, 3.53,
// against 5.15 when every piggyback was a fresh copy and every graveyard
// grew its own array by doubling.
func TestSimHeapPerPeerBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates the heap")
	}
	const peers, cycles = 1000, 30
	budget := func(what string, recordedKB float64, world func() *Engine) {
		before := collectedHeap()
		e := world()
		e.Run()
		perPeerKB := float64(collectedHeap()-before) / 1024 / peers
		runtime.KeepAlive(e)
		t.Logf("%s: %.2f KB/peer after %d cycles (recorded %.2f)", what, perPeerKB, cycles, recordedKB)
		if perPeerKB > 1.25*recordedKB {
			t.Errorf("%s: sim heap %.2f KB/peer exceeds 1.25 × the recorded %.2f", what, perPeerKB, recordedKB)
		}
	}
	for _, c := range []struct {
		workers, shards int
		recordedKB      float64
	}{{1, 1, 3.08}, {2, 4, 6.68}} {
		budget(fmt.Sprintf("workers %d shards %d", c.workers, c.shards), c.recordedKB, func() *Engine {
			return churnCycleWorld(peers, cycles, c.workers, c.shards)
		})
	}
	budget("workers 1 shards 1, graceful leaves with departure notices", 3.32, func() *Engine {
		e, _ := leaverWorld(peers, cycles, 1, 1, leaverRate)
		return e
	})
}

// TestSimSoakHeapFlat is the long-horizon check on a node's memory: a
// churned world run for 50 profile windows under steady publishing keeps
// every online peer's SIR set inside the window at every cycle, and its
// collected heap flat, the last window's within 1.1 × the third's. An owner
// that grows with run length instead of the window fails it: with the seen
// set's expiry removed, the heap reads 4.3 KB/peer at the third window and
// 6.6 at the last.
func TestSimSoakHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates the heap")
	}
	const peers, window, windows = 200, 4, 50
	const cycles = window * windows
	w := Communities(peers, 4, 2, cycles, "soak")
	nodeCfg := core.Config{FLike: 4, RPSViewSize: 10, ProfileWindow: window, DescriptorTTL: 2 * window}
	w.Churn = ChurnTrace(ChurnTraceConfig{Seed: 3, Nodes: peers, From: 1, To: cycles, CrashRate: 0.01, Downtime: 3})
	w.NewPeer = func(id news.NodeID) Peer {
		return core.NewNode(id, "", nodeCfg, w.Opinions, rand.New(rand.NewSource(int64(id)+1)))
	}
	before := collectedHeap()
	e, _ := w.NewEngine(Config{Seed: 1, Cycles: cycles, BootstrapDegree: 5, Workers: 1})
	var heap []int64 // collected heap at the end of each window
	for e.Now() < cycles {
		e.Step()
		now := e.Now()
		for _, p := range onlinePeers(e) {
			s := p.Overlay()
			for i := range w.Items {
				it := w.Items[i].Item
				if it.Created >= now-window {
					break
				}
				if s.Seen(it.ID) {
					t.Fatalf("cycle %d: online peer %d still holds item %d created at %d, before its window", now, s.ID(), it.ID, it.Created)
				}
			}
		}
		if now%window == 0 {
			heap = append(heap, collectedHeap()-before)
		}
	}
	runtime.KeepAlive(e)
	third, last := heap[2], heap[len(heap)-1]
	t.Logf("collected heap: third window %.1f KB/peer, last (window %d) %.1f KB/peer", float64(third)/1024/peers, len(heap), float64(last)/1024/peers)
	if float64(last) > 1.1*float64(third) {
		t.Errorf("heap grew with run length: last window %d B, third %d B (> 1.1 ×)", last, third)
	}
}

// TestHopShapePinned pins the BEEP hop's representation: an envelope is at
// most 24 bytes and holds no message, and a hop's message table holds a
// forwarded message once however many targets it goes to. Each cycle of the
// churned world steps as Step does, but with the cycle's publications and
// their drain run hop by hop here, counting every hop's sends and table
// entries; the run must end with Run's collector fingerprint, and the counts
// are the same for any worker or shard count. A table that stored one
// message per send would have as many entries as sends.
func TestHopShapePinned(t *testing.T) {
	if size := unsafe.Sizeof(envelope{}); size > 24 {
		t.Fatalf("envelope is %d bytes, want at most 24", size)
	}
	const peers, cycles = 200, 8
	want := []string{"1164/495", "1338/555", "1289/506", "1214/434", "926/296", "1148/343", "1126/311", "1105/265"}
	ref := churnCycleWorld(peers, cycles, 1, 1)
	ref.Run()
	for _, c := range []struct{ workers, shards int }{{1, 1}, {2, 4}} {
		e := churnCycleWorld(peers, cycles, c.workers, c.shards)
		var got []string
		for e.Now() < cycles {
			now := e.Now() + 1
			pubs := e.pubs[now]
			delete(e.pubs, now)
			e.Step() // the cycle without its publications
			e.pubs[now] = pubs
			beeps := e.col.Messages(metrics.MsgBeep)
			e.publish(now)
			sends, tabled := 0, 0
			for len(e.hop.envs) > 0 {
				sends += len(e.hop.envs)
				tabled += len(e.hop.msgs)
				e.deliverRound(now)
			}
			e.drain(now)
			e.mergeCols()
			if n := e.col.Messages(metrics.MsgBeep) - beeps; n != int64(sends) {
				t.Fatalf("workers %d shards %d cycle %d: %d sends counted, the collector recorded %d", c.workers, c.shards, now, sends, n)
			}
			got = append(got, fmt.Sprintf("%d/%d", sends, tabled))
		}
		if g, w := fingerprint(e.col), fingerprint(ref.col); g != w {
			t.Fatalf("workers %d shards %d: hop-by-hop cycles diverged from Run:\n%s\nwant\n%s", c.workers, c.shards, g, w)
		}
		if !slices.Equal(got, want) {
			t.Errorf("workers %d shards %d: sends/table entries per cycle %v, want %v", c.workers, c.shards, got, want)
		}
	}
}
