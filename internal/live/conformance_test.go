package live

import (
	"fmt"
	"strings"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// tapNet is a lossless ChannelNet that also tallies, per message kind, what
// the simulator's collector tallies: messages and descriptor+tombstone
// payload bytes (the live collector counts framed bytes instead), and keeps
// a copy of every outgoing frame in send order.
type tapNet struct {
	*ChannelNet
	msgs, bytes map[metrics.MessageKind]int64
	frames      [][]byte
}

func newTapNet(seed int64) *tapNet {
	return &tapNet{ChannelNet: NewChannelNet(seed, 0, 0),
		msgs: map[metrics.MessageKind]int64{}, bytes: map[metrics.MessageKind]int64{}}
}

func (t *tapNet) Send(env envelope) {
	k := env.kind()
	t.msgs[k]++
	for _, d := range env.Descs {
		t.bytes[k] += int64(d.WireSize())
	}
	t.bytes[k] += int64(overlay.TombstonesWireSize(env.Tombs))
	t.frames = append(t.frames, append([]byte(nil), env.frame...))
	t.ChannelNet.Send(env)
}

// overlayState renders everything a gossip cycle can change on a node: both
// views in view order (node, stamp, profile content) and the graveyard.
// Profiles render canonically (wireHex), every entry with its stamp and
// score bits.
func overlayState(n *core.Node) string {
	var b strings.Builder
	for _, v := range []*overlay.View{n.RPS().View(), n.WUP().View()} {
		for _, d := range v.Entries() {
			fmt.Fprintf(&b, " %d@%d:%s", d.Node, d.Stamp, wireHex(d.Profile))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "tombs: %v\n", n.AppendTombstones(nil))
	return b.String()
}

// wireHex renders a profile as the hex of its packed encoding, which is
// canonical and lossless: every entry's id, stamp and score bits (a nil
// profile renders as "nil").
func wireHex(p *profile.Packed) string {
	if p == nil {
		return "nil"
	}
	return fmt.Sprintf("%x", p.AppendWire(nil))
}

func phantom(id news.NodeID, stamp int64, liked ...news.ID) overlay.Descriptor {
	p := profile.New()
	for _, it := range liked {
		p.Set(it, stamp, 1)
	}
	return overlay.Descriptor{Node: id, Stamp: stamp, Profile: snapshotOf(p)}
}

// TestLegConformanceSimLive drives the same scripted two-peer exchange
// through one sim.Engine cycle and through the live runtime's own plumbing —
// initiate/refill, the codec, a lossless ChannelNet and liveNode.onMessage,
// delivered by hand in the simulator's phase order — and asserts identical
// overlay state on both peers and identical traffic per message kind. It is
// the seed of the full-fleet differential (ROADMAP 4b): the legs are shared
// code, so what this pins is that neither runtime's plumbing adds, drops or
// reorders anything around them.
func TestLegConformanceSimLive(t *testing.T) {
	const seed, cycle = 31, 1
	nodeCfg := core.Config{FLike: 2, RPSViewSize: 6, ProfileWindow: 20, DescriptorTTL: 10}
	scripts := []struct {
		name      string
		watermark float64
		// setup scripts both peers' overlay state; it runs once per runtime.
		setup func(a, b *core.Node)
	}{
		{"gossip-with-tombstone", 0, func(a, b *core.Node) {
			// Each holds the other as its oldest entry, so both initiate
			// towards each other on both layers; A knows node 8 departed
			// while B still holds its descriptor.
			a.SeedViews([]overlay.Descriptor{b.Descriptor(0), phantom(5, 1, 1), phantom(6, 1, 3)})
			b.SeedViews([]overlay.Descriptor{a.Descriptor(0), phantom(7, 1, 2), phantom(8, 1, 1)})
			a.NoteDeparture(overlay.Tombstone{Node: 8, Stamp: 1}, 1)
		}},
		{"refill-starved-puller", 0.5, func(a, b *core.Node) {
			// A knows only B and is under the watermark on both views; B is
			// well fed and answers the pull.
			a.SeedViews([]overlay.Descriptor{b.Descriptor(1)})
			b.SeedViews([]overlay.Descriptor{a.Descriptor(0), phantom(5, 1, 1), phantom(6, 1, 3), phantom(7, 1, 2)})
		}},
	}
	rate := func(a, b *core.Node) {
		a.UserProfile().Set(1, 0, 1)
		a.UserProfile().Set(2, 0, 0)
		b.UserProfile().Set(1, 0, 1)
		b.UserProfile().Set(3, 0, 1)
	}
	kinds := []metrics.MessageKind{
		metrics.MsgRPSRequest, metrics.MsgRPSReply, metrics.MsgWUPRequest, metrics.MsgWUPReply,
		metrics.MsgRefillRequest, metrics.MsgRefillReply,
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			// Simulator: one engine cycle.
			simNodes := make([]*core.Node, 2)
			for i := range simNodes {
				simNodes[i] = core.NewNode(news.NodeID(i), "", nodeCfg, nil, nodeRNG(seed, news.NodeID(i)))
			}
			rate(simNodes[0], simNodes[1])
			sc.setup(simNodes[0], simNodes[1])
			col := metrics.NewCollector()
			e := sim.New(sim.Config{Seed: seed, Cycles: cycle, DepartureNotices: true, RefillWatermark: sc.watermark},
				[]sim.Peer{simNodes[0], simNodes[1]}, col)
			e.Step()

			// Live: the same nodes (same config, same RNG streams) behind the
			// runner's plumbing, never started — the test is the scheduler.
			tap := newTapNet(seed)
			r := NewRunner(Config{Seed: seed, NodeConfig: nodeCfg, DepartureNotices: true, RefillWatermark: sc.watermark},
				dataset.Blank(2, cycle), tap)
			defer tap.Close()
			lns := []*liveNode{r.fleet[0], r.fleet[1]}
			for _, ln := range lns {
				ln.node.Crash() // drop the runner's random bootstrap
			}
			rate(lns[0].node, lns[1].node)
			sc.setup(lns[0].node, lns[1].node)
			pump := func() {
				for moved := true; moved; {
					moved = false
					for _, ln := range lns {
						for len(ln.inbox) > 0 {
							ln.onFrame(<-ln.inbox, cycle)
							moved = true
						}
					}
				}
			}
			for _, ln := range lns {
				ln.node.BeginCycle(cycle)
			}
			for _, ln := range lns { // the sim's refill phase is serial per puller
				ln.refill(cycle)
				pump()
			}
			for _, layer := range []core.Layer{core.RPSLayer, core.WUPLayer} {
				for _, ln := range lns {
					ln.initiate(layer, cycle)
				}
				pump()
			}

			for i := range lns {
				if got, want := overlayState(lns[i].node), overlayState(simNodes[i]); got != want {
					t.Errorf("node %d overlay state diverged:\n--- sim\n%s--- live\n%s", i, want, got)
				}
			}
			for _, k := range kinds {
				if tap.msgs[k] != col.Messages(k) || tap.bytes[k] != col.Bytes(k) {
					t.Errorf("%v traffic: live %d msgs / %d payload bytes, sim %d / %d",
						k, tap.msgs[k], tap.bytes[k], col.Messages(k), col.Bytes(k))
				}
			}
			if col.Messages(metrics.MsgRPSReply) == 0 || col.Messages(metrics.MsgWUPReply) == 0 {
				t.Fatal("the script exchanged nothing; the comparison would be vacuous")
			}
			if sc.watermark > 0 && col.Messages(metrics.MsgRefillReply) == 0 {
				t.Fatal("the refill script never pulled")
			}
		})
	}
}
