package live

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

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
	msgs, bytes     map[metrics.MessageKind]int64
	frames          [][]byte
	dislikeForwards int // item frames a node forwarded because it disliked the item
}

func newTapNet(seed int64) *tapNet {
	return &tapNet{ChannelNet: NewChannelNet(seed, 0, 0),
		msgs: map[metrics.MessageKind]int64{}, bytes: map[metrics.MessageKind]int64{}}
}

func (t *tapNet) Send(from, to news.NodeID, payload *[]byte) {
	var env envelope
	if err := decodePayload(&env, *payload, nil, nil); err != nil {
		panic(fmt.Sprintf("tapNet: a node sent an undecodable payload: %v", err))
	}
	k := env.kind()
	t.msgs[k]++
	for _, d := range env.Descs {
		t.bytes[k] += int64(d.WireSize())
	}
	t.bytes[k] += int64(overlay.TombstonesWireSize(env.Tombs))
	if env.Kind == wireItem && env.Item.ViaDislike {
		t.dislikeForwards++
	}
	t.frames = append(t.frames, appendFrame(nil, *payload))
	t.ChannelNet.Send(from, to, payload)
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
	fmt.Fprintf(&b, "tombs: %v\n", n.Tombstones())
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
			lns := []*liveNode{member(r, 0), member(r, 1)}
			for _, ln := range lns {
				ln.node.Crash() // drop the runner's random bootstrap
			}
			rate(lns[0].node, lns[1].node)
			sc.setup(lns[0].node, lns[1].node)
			pump := func() {
				for moved := true; moved; {
					moved = false
					for _, ln := range lns {
						for buf, _ := ln.inbox.take(); buf != nil; buf, _ = ln.inbox.take() {
							ln.onFrame(buf, cycle)
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
	t.Run("membership", testMembershipLeg)
}

// fleetLog is a recording wrapper around the live runtime's side of
// membership events: for every member an event starts, the members the
// event read before starting it — a joiner's host, a rejoiner's bootstrap
// sample.
type fleetLog struct {
	fleet
	held    []news.NodeID
	started map[news.NodeID][]news.NodeID
}

func (l *fleetLog) Hold(ln *liveNode, fn func(*core.Substrate, int64)) {
	l.held = append(l.held, ln.node.ID())
	l.fleet.Hold(ln, fn)
}

func (l *fleetLog) Start(ln *liveNode, now int64, up func(*core.Substrate)) {
	l.started[ln.node.ID()], l.held = l.held, nil
	l.fleet.Start(ln, now, up)
}

// simLog observes the same choices in the simulator through the member
// handles a test supplies: a joiner's host is the one other peer whose state
// the engine reads between building the joiner (Config.NewPeer) and
// cold-starting it, and a rejoiner's bootstrap sample is its RPS view at the
// first BeginCycle after its rejoin.
type simLog struct {
	joining  news.NodeID // the joiner being applied, NoNode between joins
	read     []news.NodeID
	rejoinAt map[news.NodeID]int64
	started  map[news.NodeID][]news.NodeID
}

type simMember struct {
	*core.Node
	log *simLog
}

func (p *simMember) Overlay() *core.Substrate {
	if p.log.joining != news.NoNode && p.ID() != p.log.joining {
		p.log.read = append(p.log.read, p.ID())
	}
	return p.Node.Overlay()
}

func (p *simMember) ColdStart(rps, wup []overlay.Descriptor, now int64) {
	p.log.started[p.ID()], p.log.read, p.log.joining = p.log.read, nil, news.NoNode
	p.Node.ColdStart(rps, wup, now)
}

func (p *simMember) BeginCycle(now int64) {
	if p.log.rejoinAt[p.ID()] == now {
		p.log.started[p.ID()] = viewIDs(p.RPS().View())
	}
	p.Node.BeginCycle(now)
}

// viewIDs returns the node ids a view holds, ascending.
func viewIDs(v *overlay.View) []news.NodeID {
	var ids []news.NodeID
	v.ForEach(func(d overlay.Descriptor) { ids = append(ids, d.Node) })
	slices.Sort(ids)
	return ids
}

// testMembershipLeg applies one churn schedule — a graceful leave before any
// gossip, a flash crowd, crashes and rejoins, the leave of a crashed member —
// through sim.Engine and through a lossless live fleet whose controller the
// test drives (no node ticks, so nothing gossips), and asserts that both
// runtimes make every membership choice alike: the initial random graph,
// each joiner's host, each rejoiner's bootstrap id set, the departure
// notices sent and every member's final state. A second live run with an
// extra crash and rejoin before the joins shows that a joiner's host no
// longer depends on earlier membership events.
func testMembershipLeg(t *testing.T) {
	const seed, base, cycles = 17, 16, 6
	nodeCfg := core.Config{FLike: 2, RPSViewSize: 6, WUPViewSize: 4, ProfileWindow: 20, DescriptorTTL: 10}
	schedule := sim.FlashCrowd(2, 100, 6, 2)
	schedule.Merge(*new(sim.ChurnSchedule).
		Add(1, sim.ChurnLeave, 3).
		Add(2, sim.ChurnCrash, 5).Add(2, sim.ChurnCrash, 7).
		Add(4, sim.ChurnRejoin, 5).Add(5, sim.ChurnRejoin, 7).
		Add(5, sim.ChurnCrash, 4).Add(6, sim.ChurnLeave, 4))
	rejoinAt := map[news.NodeID]int64{5: 4, 7: 5}

	// Simulator.
	slog := &simLog{joining: news.NoNode, rejoinAt: rejoinAt, started: map[news.NodeID][]news.NodeID{}}
	newMember := func(id news.NodeID) sim.Peer {
		return &simMember{core.NewNode(id, "", nodeCfg, nil, nodeRNG(seed, id)), slog}
	}
	peers := make([]sim.Peer, base)
	for i := range peers {
		peers[i] = newMember(news.NodeID(i))
	}
	col := metrics.NewCollector()
	e := sim.New(sim.Config{Seed: seed, Cycles: cycles, Workers: 1, DepartureNotices: true, Churn: schedule,
		NewPeer: func(id news.NodeID) sim.Peer { slog.joining = id; return newMember(id) }}, peers, col)
	e.Bootstrap()
	simBoot := map[news.NodeID][]news.NodeID{}
	for _, p := range e.Peers() {
		simBoot[p.Overlay().ID()] = viewIDs(p.Overlay().RPS().View())
	}
	e.Run()

	// Live, twice: the second schedule adds a crash and rejoin of node 9.
	live := func(schedule sim.ChurnSchedule) (*Runner, *tapNet, *fleetLog) {
		tap := newTapNet(seed)
		r := NewRunner(Config{Seed: seed, NodeConfig: nodeCfg, DepartureNotices: true, Churn: schedule},
			dataset.Blank(base, cycles), tap)
		rec := &fleetLog{fleet: fleet{r}, started: map[news.NodeID][]news.NodeID{}}
		for id, want := range simBoot {
			if got := viewIDs(member(r, id).node.RPS().View()); !slices.Equal(got, want) {
				t.Errorf("node %d bootstrap: live %v, sim %v", id, got, want)
			}
		}
		r.startFleet()
		for c := int64(1); c <= cycles; c++ {
			r.mem.ApplyCycle(rec, c)
		}
		r.stopFleet()
		tap.Close()
		return r, tap, rec
	}
	r, tap, rec := live(schedule)
	for id, want := range slog.started {
		got := slices.Clone(rec.started[id])
		if _, rejoiner := rejoinAt[id]; rejoiner {
			slices.Sort(got)
		}
		if !slices.Equal(got, want) {
			t.Errorf("node %d started from %v in live, %v in the simulator", id, got, want)
		}
	}
	if len(slog.started) != 8 || len(rec.started) != 8 {
		t.Fatalf("%d members started in the simulator and %d in live, want 6 joiners and 2 rejoiners",
			len(slog.started), len(rec.started))
	}
	if got, want := tap.msgs[metrics.MsgDeparture], col.Messages(metrics.MsgDeparture); got != want || want == 0 {
		t.Errorf("departure notices: live %d, sim %d (want the same, and some)", got, want)
	}
	if got, want := tap.bytes[metrics.MsgDeparture], col.Bytes(metrics.MsgDeparture); got != want {
		t.Errorf("departure payload bytes: live %d, sim %d", got, want)
	}
	for _, p := range e.Peers() {
		id := p.Overlay().ID()
		simSt, _ := e.State(id)
		if liveSt, _ := r.State(id); liveSt != simSt {
			t.Errorf("node %d ends %v in live, %v in the simulator", id, liveSt, simSt)
		}
	}

	_, _, again := live(*schedule.Merge(*new(sim.ChurnSchedule).Add(1, sim.ChurnCrash, 9).Add(1, sim.ChurnRejoin, 9)))
	for id := news.NodeID(100); id < 106; id++ {
		if !slices.Equal(again.started[id], rec.started[id]) {
			t.Errorf("joiner %d: host %v after an extra crash and rejoin, %v without", id, again.started[id], rec.started[id])
		}
	}
}

// member returns the fleet node with the given id, nil for an unknown id.
func member(r *Runner, id news.NodeID) *liveNode {
	ln, _, _ := r.mem.Lookup(id)
	return ln
}

// TestLeaveOfCrashedMemberDeparts applies a crash and then a leave of the
// same member through both runtimes, with departure notices on: a leave
// moves an offline member to Departed as it does an online one, and a member
// that is not online sends no departure notice.
func TestLeaveOfCrashedMemberDeparts(t *testing.T) {
	const seed, base, cycles = 23, 12, 6
	nodeCfg := core.Config{FLike: 2, RPSViewSize: 6, ProfileWindow: 20, DescriptorTTL: 10}
	var schedule sim.ChurnSchedule
	schedule.Add(2, sim.ChurnCrash, 4).Add(4, sim.ChurnLeave, 4)

	peers := make([]sim.Peer, base)
	for i := range peers {
		peers[i] = core.NewNode(news.NodeID(i), "", nodeCfg, nil, nodeRNG(seed, news.NodeID(i)))
	}
	col := metrics.NewCollector()
	e := sim.New(sim.Config{Seed: seed, Cycles: cycles, DepartureNotices: true, Churn: schedule}, peers, col)
	e.Bootstrap()
	e.Run()

	r := NewRunner(Config{Seed: seed, Cycles: cycles, CycleLength: 2 * time.Millisecond, NodeConfig: nodeCfg,
		DepartureNotices: true, Churn: schedule}, dataset.Blank(base, cycles), NewChannelNet(seed, 0, 0))
	r.Run()

	for name, rt := range map[string]struct {
		state      func(news.NodeID) (sim.MemberState, bool)
		departures int64
	}{
		"sim":  {e.State, col.Messages(metrics.MsgDeparture)},
		"live": {r.State, r.Collector().Messages(metrics.MsgDeparture)},
	} {
		if st, _ := rt.state(4); st != sim.Departed {
			t.Errorf("%s: node 4 ends %v, want departed", name, st)
		}
		if rt.departures != 0 {
			t.Errorf("%s: %d departure notices from a crashed leaver, want none", name, rt.departures)
		}
	}
}
