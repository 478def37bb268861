// Package sim is the deterministic cycle-based simulator used for the bulk
// of the evaluation (paper Section V: "simulations use the duration of a
// gossip cycle as a time unit"). Each cycle every peer purges its profile
// window, performs one RPS and one WUP exchange, and scheduled publications
// are disseminated to quiescence. A configurable loss model drops BEEP and
// gossip messages (Table VI).
//
// The engine is a runtime for core.Substrate: every overlay rule — the
// exchange legs, refill, departure notices, crash, leave, rejoin — is a call
// into the substrate a Peer embeds, shared verbatim with internal/live. What
// the engine owns is what only a simulator has: the phase order and its
// barriers, loss and link draws, wire-byte accounting, the worker pool and
// the shard routing below.
//
// The engine is parallel *and* strictly deterministic: peer state lives in
// one member table indexed by global dense index, every per-cycle phase is
// split across one pool of Config.Workers workers, gossip legs between
// routing partitions (Config.Shards) cross through the wire codec, and yet a
// given seed produces bit-identical results for any Workers×Shards
// combination. Four mechanisms guarantee this:
//
//   - Randomness is never drawn from a shared source. The engine derives one
//     RNG stream per peer from Config.Seed and the peer ID; loss decisions
//     and bootstrap sampling consume only the stream of the peer they
//     concern, in a per-peer order that is fixed by the phase structure.
//   - Every phase partitions state mutation by owner. Gossip rounds split into a parallel "compute
//     pushes" phase (each initiator touches only its own state), an "absorb
//     pushes" phase grouped per responder (each responder applies its
//     incoming pushes in initiator order), and a parallel "absorb replies"
//     phase. BEEP dissemination proceeds in hop rounds: all sends of a hop
//     are ordered by (to, from, item) and then delivered grouped per
//     receiver, with receiver-order delivery callbacks.
//   - Gossip exchanges that cross a shard boundary are routed as batches
//     encoded through the binary wire codec (see routeCrossShard): a
//     profile's Σ score² is a function of its entries, so a responder in
//     another shard scores the decoded descriptors bit-identically to the
//     in-memory originals. Shards=1 skips the codec entirely and is
//     structurally the pre-shard engine.
//   - Metrics are recorded into per-worker metrics.Collector scratch and
//     merged into the main collector at the end of every cycle; all merged
//     quantities are integers, so the merge is order-independent.
//
// Membership is dynamic and shared with internal/live (membership.go): a
// ChurnSchedule's joins, leaves, crashes and rejoins are applied serially at
// the cycle boundary, drawing only from the affected peer's stream, so the
// determinism contract extends to churn. A member's global index g fixes its
// routing shard (g mod Shards) for the lifetime of the engine.
package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/graph"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/wire"
)

// Peer is the engine-facing contract of a protocol node: the shared gossip
// substrate plus the four calls that are a peer type's own. Everything the
// engine does to a peer's overlay state — gossip legs, refill, departure
// notices, crash, leave, rejoin — it does through Overlay, so every peer type
// follows the same rules by construction; BeginCycle, InjectRPSCandidates,
// Publish and Receive go through the interface so a wrapper embedding a peer
// can observe or alter them. core.Node and the baselines satisfy it by
// embedding core.Substrate. Peer methods are only ever invoked for one peer
// from one goroutine at a time; they may freely read immutable shared data
// (descriptors, profiles snapshots, the opinion trace).
type Peer interface {
	Overlay() *core.Substrate
	BeginCycle(now int64)
	InjectRPSCandidates()
	Publish(item news.Item, now int64) []core.Send
	Receive(msg core.ItemMessage, now int64) (core.Delivery, []core.Send)
}

// Publication schedules the creation of an item at a source node.
type Publication struct {
	Cycle  int64
	Source news.NodeID
	Item   news.Item
}

// Config parameterizes an engine run.
type Config struct {
	// Seed drives the engine's own randomness (loss decisions, bootstrap).
	Seed int64
	// Cycles is the number of gossip cycles Run executes.
	Cycles int
	// LossRate drops each message (BEEP, RPS and WUP legs independently)
	// with this probability (Table VI).
	LossRate float64
	// Links, when set, overlays per-link network conditions on top of the
	// uniform loss model: a faultnet.Policy assigning loss rates and
	// scheduled partitions to individual directed links (latency and
	// bandwidth rules only apply under the live transports — the sim
	// delivers within the cycle either way). Link decisions are stateless
	// hashes keyed off Seed, the link and the event, so they never perturb
	// the per-peer streams: a run with a nil (or empty) policy is
	// bit-identical with history, and any policy preserves the worker-count
	// determinism contract. The policy must not be mutated during the run.
	Links *faultnet.Policy
	// BootstrapDegree is the number of random descriptors each peer's views
	// are seeded with before the run (default core.DefaultBootstrapDegree).
	BootstrapDegree int
	// Workers is the worker pool every per-cycle phase is split across
	// (0 = GOMAXPROCS); no more than Workers peer calls ever run at once.
	// Results are bit-identical for any value; see the package documentation
	// for the determinism contract.
	Workers int
	// Shards is the number of routing partitions (0 or 1 = none, the
	// pre-shard engine). A member at global dense index g belongs to shard
	// g mod Shards, and a gossip exchange crossing a shard boundary is
	// routed as a wire-codec batch (the inter-shard ABI). It decides routing
	// only, not execution; results are bit-identical for any shard count.
	Shards int
	// Publications is the item schedule; entries outside [1, Cycles] never
	// fire under Run (Step honours whatever cycle it reaches).
	Publications []Publication
	// Churn is the declarative membership schedule: the events of cycle c
	// are applied serially at the start of cycle c, before any peer acts.
	// An empty schedule reproduces the historical fixed-peer behaviour
	// bit-identically.
	Churn ChurnSchedule
	// NewPeer constructs the peer object for a scheduled ChurnJoin event.
	// Required when the schedule contains joins (join events are skipped
	// otherwise); the engine bootstraps the new peer's views from the
	// online population.
	NewPeer func(id news.NodeID) Peer
	// DepartureNotices enables the churn protocol's graceful-departure path:
	// a scheduled ChurnLeave sends a departure notice to the leaver's view
	// neighbours (subject to the loss model), which evict it immediately and
	// piggyback the tombstone on their own gossip for one horizon instead of
	// waiting out the descriptor TTL. Off by default — disabled runs are
	// bit-identical with the historical engine.
	DepartureNotices bool
	// RefillWatermark enables adaptive view refill: at the start of each
	// cycle, every online peer whose RPS or WUP view occupancy has fallen
	// under this fraction of capacity pulls an anti-entropy descriptor
	// sample from its freshest surviving neighbour. Refill loss decisions
	// consume only the pulling peer's engine stream and the phase runs
	// serially in dense-index order, preserving the worker-count determinism
	// contract. Zero disables refill (the historical behaviour).
	RefillWatermark float64
	// OnCycleEnd, if set, is invoked after each cycle with the engine; used
	// by the dynamics experiments (Figure 7) to sample view similarity.
	OnCycleEnd func(e *Engine, now int64)
	// OnDelivery, if set, observes every non-duplicate delivery. Deliveries
	// are reported in a deterministic order regardless of worker or shard
	// count.
	OnDelivery func(d core.Delivery, now int64)
}

// envelope is one in-flight BEEP send: its endpoints, the item it carries
// (the last key of the hop's sort) and the index of its message in the hop's
// message table. It holds no pointer, so the sort moves 24 bytes a send and a
// buffer of envelopes pins nothing.
type envelope struct {
	to, from news.NodeID
	msg      int32 // index into hop.msgs
	item     news.ID
}

// hop is the BEEP traffic of one hop round: an envelope per send over a
// message table holding each distinct message once. The sends of one Publish
// or Receive call that carry an equal message (==) share one entry, so a
// forward to fLIKE targets stores one core.ItemMessage (120 bytes) and fLIKE
// envelopes; any other send gets an entry of its own, whatever the Peer.
// sends is the buffer a core.Node's Publish or Receive appends to before
// add copies them in (publish, receive).
type hop struct {
	envs  []envelope
	msgs  []core.ItemMessage
	sends []core.Send
}

// publish is src.Publish(item, now), appended to h.sends when src is a
// *core.Node (core.Node.AppendPublish); any other Peer — a baseline, or a
// wrapper that observes the calls — goes through the interface. The sends
// are valid until h's next publish or receive.
func (h *hop) publish(src Peer, item news.Item, now int64) []core.Send {
	n, ok := src.(*core.Node)
	if !ok {
		return src.Publish(item, now)
	}
	clear(h.sends)
	h.sends = n.AppendPublish(h.sends[:0], item, now)
	return h.sends
}

// receive is recv.Receive(msg, now) the way publish is src.Publish: a
// *core.Node appends to h.sends (core.Node.AppendReceive) and folds into a
// new profile, since h's table shares a forward's profile across its paths.
//
//whatsup:hotpath
func (h *hop) receive(recv Peer, msg core.ItemMessage, now int64) (core.Delivery, []core.Send) {
	n, ok := recv.(*core.Node)
	if !ok {
		return recv.Receive(msg, now)
	}
	clear(h.sends)
	d, sends := n.AppendReceive(h.sends[:0], nil, msg, now)
	h.sends = sends
	return d, sends
}

// add appends the sends of one Publish or Receive call by from.
//
//whatsup:hotpath
func (h *hop) add(from news.NodeID, sends []core.Send) {
	lo := len(h.msgs) // the call's first entry: only its own sends share one
	for _, s := range sends {
		k := lo
		for k < len(h.msgs) && h.msgs[k] != s.Msg {
			k++
		}
		if k == len(h.msgs) {
			h.msgs = append(h.msgs, s.Msg) //whatsup:alloc amortized growth of the cross-cycle message table
		}
		h.envs = append(h.envs, envelope{to: s.To, from: from, msg: int32(k), item: s.Msg.Item.ID}) //whatsup:alloc amortized growth of the cross-cycle envelope buffer
	}
}

// reset empties the hop, keeping its arrays and, beyond len, their contents.
func (h *hop) reset() { h.envs, h.msgs = h.envs[:0], h.msgs[:0] }

// release zeroes the arrays to capacity: a table entry or a send pins an
// item profile.
func (h *hop) release() {
	clear(h.envs[:cap(h.envs)])
	clear(h.msgs[:cap(h.msgs)])
	clear(h.sends[:cap(h.sends)])
	h.sends = h.sends[:0]
}

// segment is one per-receiver span of a sorted BEEP hop.
type segment struct {
	lo, hi int
}

// pendingLeg is one decoded cross-shard exchange leg awaiting fix-up: arena
// offsets are recorded during decode and resolved to subslices only after
// the arena stops growing (appends may relocate the backing array).
type pendingLeg struct {
	g        int // global dense index of the exchange's initiator
	dlo, dhi int // descriptor arena span
	tlo, thi int // tombstone arena span
}

// shardDecode is one destination shard's pooled decode state for inter-shard
// batches: the descriptor arena, the pending fix-up list and the table of
// profile snapshots the shard has already decoded, all reused across rounds,
// and the tombstone arena, which is new every decode because a receiver's
// graveyard may adopt a span of it for good. Beyond that arena, steady-state
// routing allocates only the profiles of snapshots the shard sees for the
// first time (one allocation each up to 1 112 bytes, and they outlive the
// round inside receiver views); one it holds is shared, as the serial engine
// shares every snapshot by passing descriptors around in memory.
type shardDecode struct {
	descs   []overlay.Descriptor
	tombs   []overlay.Tombstone
	pending []pendingLeg
	snaps   overlay.SnapshotTable
}

// snapshotGenerationCycles is how many cycles one generation of a shard's
// snapshot table spans; a snapshot the shard decodes in no batch for two
// generations is forgotten. It trades allocations against pinned heap.
// Measured at commit 5e17f47 on the benchmark's sim-sharded world (2000
// peers, Workers 2, Shards 4, seed 1, heap read after cycle 30: just after
// a rotation, except at 4 cycles, where it is two cycles after one):
//
//	1 cycle   19.45 allocs/op   9.46 KB/peer
//	2 cycles  15.89            10.39
//	3 cycles  14.81            10.56
//	4 cycles  14.43            11.18
//	never     14.14            17.07
//
// Two cycles was chosen where the curve flattened on the pre-packed engine.
// On this curve the step to three cycles still buys an allocation per
// peer-cycle (1.08) for 0.18 KB, so the choice is open to re-tuning.
const snapshotGenerationCycles = 2

// ShardStats counts the gossip traffic routed between shards through the
// wire codec. It is engine-side observability, deliberately separate from
// the metrics.Collector: collector fingerprints must stay bit-identical
// across shard counts, while these numbers exist precisely to differ.
type ShardStats struct {
	// Crossings is the number of exchange legs (pushes and replies) that
	// crossed a shard boundary and were codec-routed.
	Crossings int64
	// Batches is the number of non-empty (source, destination) batch
	// buffers flushed.
	Batches int64
	// BatchBytes is the total encoded size of those batches — the
	// inter-shard ABI traffic a multi-process split would put on a pipe.
	BatchBytes int64
	// SnapshotsShared is the number of routed descriptors whose profile the
	// destination shard already held and shared instead of decoding it
	// again; SnapshotsDecoded the number it built a profile for. Their sum
	// is the profile-carrying descriptors routed.
	SnapshotsShared  int64
	SnapshotsDecoded int64
}

// emptyDescriptors preserves non-nil-but-empty reply semantics across the
// codec boundary: an exchange whose reply slice is non-nil is absorbed (and
// its piggybacked tombstones noted) even when it carries no descriptors.
var emptyDescriptors = make([]overlay.Descriptor, 0)

// Engine drives a set of peers through gossip cycles.
//
// The member table (mem) is indexed by global dense index; the phases read
// its slices directly. The scratch fields at the bottom are reused across
// hops and cycles so the steady-state per-cycle loop performs no engine-side
// allocation beyond the cross-shard profile snapshots and tombstone arenas a
// shard decodes and the one array per round each leg arena takes: the BEEP
// hop (its envelopes and its message table, which stores each forwarded
// message once), the per-receiver segments, the per-worker next-hop and
// delivery buffers, the gossip exchange table and the inter-shard batch
// buffers and descriptor decode arenas all keep their capacity between
// cycles — and only that: drain and gossipRound zero what could pin a
// profile or a descriptor slice.
// The push and reply arenas (legArena) keep nothing but a length: every
// gossip leg a worker builds in a round is appended to that worker's arena,
// and gossipRound drops the arrays, capacity included, when the round ends.
type Engine struct {
	cfg     Config
	workers int // worker pool size (>= 1)
	nshards int // routing partition count (>= 1)
	mem     *Membership[Peer]
	col     *metrics.Collector
	cols    []*metrics.Collector // per-worker scratch collectors
	now     int64
	pubs    map[int64][]Publication
	stats   ShardStats

	hop         hop        // sends of the current BEEP hop
	segs        []segment  // per-receiver spans of the sorted hop
	exs         []exchange // gossip exchange table, one slot per peer
	pushArenas  []legArena // per-worker push legs of the current gossip round
	replyArenas []legArena // per-worker reply legs of the current gossip round
	order       []news.NodeID
	bucketIdx   map[news.NodeID]int
	bucketLists [][]int
	next        []hop             // per-worker sends of the next BEEP hop
	delivBufs   [][]core.Delivery // per-worker deliveries for OnDelivery
	xbufs       [][]byte          // pooled (src*S+dst) inter-shard batch buffers
	xdec        []shardDecode     // per destination shard decode arenas
}

// New builds an engine over the given peers, recording into col.
func New(cfg Config, peers []Peer, col *metrics.Collector) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nshards := max(cfg.Shards, 1)
	e := &Engine{
		cfg:         cfg,
		workers:     workers,
		nshards:     nshards,
		mem:         NewMembership[Peer](cfg.Seed, cfg.BootstrapDegree, cfg.DepartureNotices, cfg.Churn, len(peers)),
		col:         col,
		cols:        make([]*metrics.Collector, workers),
		pubs:        make(map[int64][]Publication),
		bucketIdx:   make(map[news.NodeID]int, len(peers)),
		next:        make([]hop, workers),
		pushArenas:  make([]legArena, workers),
		replyArenas: make([]legArena, workers),
		delivBufs:   make([][]core.Delivery, workers),
		xbufs:       make([][]byte, nshards*nshards),
		xdec:        make([]shardDecode, nshards),
	}
	for w := range e.cols {
		e.cols[w] = metrics.NewCollector()
	}
	for _, p := range peers {
		e.mem.Add(p.Overlay().ID(), p)
	}
	for _, pub := range cfg.Publications {
		e.pubs[pub.Cycle] = append(e.pubs[pub.Cycle], pub)
	}
	return e
}

// shardOf returns the routing shard of a global dense index.
func (e *Engine) shardOf(g int) int { return g % e.nshards }

// AddPeer registers a peer between cycles (the joining-node experiment of
// Figure 7). The caller is responsible for cold-starting its views; joins
// scheduled through Config.Churn are bootstrapped by the engine instead.
// Registering an id that already exists is a no-op.
func (e *Engine) AddPeer(p Peer) { e.mem.Add(p.Overlay().ID(), p) }

// Peers returns a copy of the engine's peers in registration order,
// regardless of lifecycle state. The returned slice is the caller's to keep:
// mutating it cannot corrupt the engine's member table.
func (e *Engine) Peers() []Peer { return slices.Clone(e.mem.members) }

// Peer returns the peer with the given id in any lifecycle state, or nil.
func (e *Engine) Peer(id news.NodeID) Peer {
	p, _, _ := e.mem.Lookup(id)
	return p
}

// State returns the lifecycle state of a member; ok is false for ids the
// engine has never seen.
func (e *Engine) State(id news.NodeID) (MemberState, bool) {
	_, st, ok := e.mem.Lookup(id)
	return st, ok
}

// OnlineCount returns the number of members currently online.
func (e *Engine) OnlineCount() int { return e.mem.counts[Online] }

// onlinePeer returns the peer for an id only when it is online.
func (e *Engine) onlinePeer(id news.NodeID) Peer {
	if g, ok := e.mem.idx[id]; ok && e.mem.states[g] == Online {
		return e.mem.members[g]
	}
	return nil
}

// engineSide is the simulator's side of membership events. A peer has no
// goroutine, endpoint or lock: its critical section is the call itself, at
// the engine clock. A departure notice is accounted like any message, then
// subject to the loss draw from the leaver's stream and the link policy.
type engineSide struct{ e *Engine }

func (s engineSide) Hold(p Peer, fn func(*core.Substrate, int64)) { fn(p.Overlay(), s.e.now) }

func (s engineSide) Start(p Peer, _ int64, up func(*core.Substrate)) { up(p.Overlay()) }

func (s engineSide) Stop(p Peer, _ bool, down func(*core.Substrate)) { down(p.Overlay()) }

func (s engineSide) Notify(leaver, to Peer, t overlay.Tombstone) {
	e, from, dst := s.e, leaver.Overlay().ID(), to.Overlay()
	e.col.RecordMessage(metrics.MsgDeparture, t.WireSize())
	if e.lost(from) || e.linkDropped(from, dst.ID(), e.now, metrics.MsgDeparture, 0) {
		return
	}
	dst.NoteDeparture(t, e.now)
}

func (s engineSide) New(id news.NodeID, _ int64) (Peer, bool) {
	if s.e.cfg.NewPeer == nil {
		return nil, false
	}
	p := s.e.cfg.NewPeer(id)
	return p, p != nil && p.Overlay().ID() == id
}

// Now returns the current cycle.
func (e *Engine) Now() int64 { return e.now }

// Workers returns the effective total worker budget.
func (e *Engine) Workers() int { return e.workers }

// Shards returns the effective shard count.
func (e *Engine) Shards() int { return e.nshards }

// ShardStats returns the cumulative cross-shard routing counters. All zeros
// at Shards=1, where no exchange ever crosses a boundary.
func (e *Engine) ShardStats() ShardStats {
	st := e.stats
	for d := range e.xdec {
		st.SnapshotsShared += e.xdec[d].snaps.Shared
		st.SnapshotsDecoded += e.xdec[d].snaps.Decoded
	}
	return st
}

// parallelSpans is the engine's work partitioner: fn(worker, i) for every i
// in [0, n), one contiguous span per worker, the spans ascending with the
// worker id. With a single worker (or a single item) it runs inline. fn must
// touch only state owned by item i plus the worker'th scratch; the span split
// then only decides which collector a record lands in, and collectors merge
// commutatively. Reading the per-worker scratch in worker order visits the
// items in index order.
func (e *Engine) parallelSpans(n int, fn func(worker, i int)) {
	w := min(e.workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			for i := k * n / w; i < (k+1)*n/w; i++ {
				fn(k, i)
			}
		}(k)
	}
	wg.Wait()
}

// mergeCols folds the per-worker collector scratch into the main collector.
// Called at the end of every cycle (a barrier), so user-visible reads —
// OnCycleEnd hooks, post-run analysis — always see merged totals.
func (e *Engine) mergeCols() {
	for _, s := range e.cols {
		e.col.Merge(s)
		s.Reset()
	}
}

// Bootstrap seeds every online peer's views with BootstrapDegree random
// descriptors of other online peers, forming the initial random graph. Each
// peer samples its neighbours from its own engine stream, so the graph is
// independent of the worker and shard counts.
func (e *Engine) Bootstrap() {
	e.mem.Bootstrap(engineSide{e}, func(n int, fn func(g int)) {
		e.parallelSpans(n, func(_, g int) { fn(g) })
	})
}

// Health takes one fleet-health sample of the current engine state — online
// population by cohort, ghost fraction and view fill over the online fleet,
// partitions holding — through the sampler the live runner uses too.
// Drivers call it from OnCycleEnd to build per-cycle timelines.
func (e *Engine) Health() metrics.ChurnSample {
	return e.mem.Health(engineSide{e}, e.now, e.col.CohortOf, e.cfg.Links)
}

// linkDropped reports whether the per-link fault policy (Config.Links)
// drops a message on the directed link this cycle: partition cuts always
// drop, lossy links drop by a stateless faultnet draw keyed off the engine
// seed and the event identity (salt = the message kind, extra = the item for
// BEEP). No peer stream is touched, so fault injection composes with the
// uniform loss model without disturbing its draws, and any worker can
// evaluate the check in any order. Nil policy: one comparison, no work.
func (e *Engine) linkDropped(from, to news.NodeID, now int64, kind metrics.MessageKind, extra uint64) bool {
	if e.cfg.Links == nil {
		return false
	}
	return e.cfg.Links.Drop(e.cfg.Seed, from, to, now, uint64(kind)+1, extra)
}

// lost draws one loss decision from the given peer's engine stream. Every
// phase consumes each peer's stream in a deterministic per-peer order, so
// loss outcomes are independent of the worker count.
func (e *Engine) lost(id news.NodeID) bool {
	if e.cfg.LossRate <= 0 {
		return false
	}
	g, ok := e.mem.idx[id]
	return ok && e.mem.streams[g].Float64() < e.cfg.LossRate
}

// descriptorsWireSize sums the wire sizes of a descriptor batch.
func descriptorsWireSize(batch []overlay.Descriptor) int {
	total := 0
	for _, d := range batch {
		total += d.WireSize()
	}
	return total
}

// Step advances the simulation by one cycle: membership events first, then
// per-peer maintenance, the two gossip rounds, scheduled publications and
// the BEEP drain. Offline and departed members take part in nothing;
// messages addressed to them are dropped exactly where an unknown
// destination's would be.
func (e *Engine) Step() {
	e.now++
	now := e.now

	e.mem.ApplyCycle(engineSide{e}, now)
	e.parallelSpans(len(e.mem.members), func(_, g int) {
		if e.mem.states[g] == Online {
			e.mem.members[g].BeginCycle(now)
		}
	})
	if e.cfg.RefillWatermark > 0 {
		e.refillViews(now)
	}
	e.gossipRound(now, core.RPSLayer, metrics.MsgRPSRequest, metrics.MsgRPSReply)
	e.gossipRound(now, core.WUPLayer, metrics.MsgWUPRequest, metrics.MsgWUPReply)

	e.publish(now)
	e.drain(now)
	e.mergeCols()
	if now%snapshotGenerationCycles == 0 {
		for d := range e.xdec {
			e.xdec[d].snaps.Rotate()
		}
	}

	if e.cfg.OnCycleEnd != nil {
		e.cfg.OnCycleEnd(e, now)
	}
}

// Run executes cfg.Cycles cycles (continuing from the current time if
// called after Step).
func (e *Engine) Run() {
	for int(e.now) < e.cfg.Cycles {
		e.Step()
	}
}

// publish hands the cycle's scheduled items to their sources, those online,
// and queues the sends as the first BEEP hop.
func (e *Engine) publish(now int64) {
	for _, pub := range e.pubs[now] {
		src := e.onlinePeer(pub.Source)
		if src == nil {
			continue
		}
		sends := e.hop.publish(src, pub.Item, now)
		if len(sends) > 0 {
			e.col.RecordForward(true, 0)
		}
		e.hop.add(pub.Source, sends)
	}
}

// refillViews is the adaptive anti-entropy phase of the churn protocol: any
// online peer whose view occupancy fell under the refill watermark (churn
// evicted more neighbours than gossip replaced) pulls a descriptor sample
// from the freshest neighbour it still knows. The phase runs serially in
// dense-index order right after cycle maintenance, before the gossip rounds;
// loss decisions for both legs of a pull consume only the pulling peer's
// engine stream, so results are bit-identical for any worker count.
func (e *Engine) refillViews(now int64) {
	wm := e.cfg.RefillWatermark
	var leg []overlay.Descriptor // the phase's reply arena: one array, cleared after each pull
	for g, p := range e.mem.members {
		if e.mem.states[g] != Online {
			continue
		}
		s := p.Overlay()
		target, ok := s.RefillTarget(wm)
		if !ok {
			continue
		}
		responder := e.onlinePeer(target)
		if responder == nil {
			continue // the freshest neighbour is itself gone; TTL will flush it
		}
		req := []overlay.Descriptor{s.Descriptor(now)}
		e.col.RecordMessage(metrics.MsgRefillRequest, descriptorsWireSize(req))
		if e.lost(s.ID()) || e.linkDropped(s.ID(), target, now, metrics.MsgRefillRequest, 0) {
			continue
		}
		reply := responder.Overlay().AcceptRefill(leg, req, now)
		e.col.RecordMessage(metrics.MsgRefillReply, descriptorsWireSize(reply))
		if !e.lost(s.ID()) && !e.linkDropped(target, s.ID(), now, metrics.MsgRefillReply, 0) {
			s.AcceptRefillReply(reply, wm, now)
		}
		clear(reply)
		leg = reply[:0]
	}
}

// exchange tracks one gossip push-pull through the three round phases. It
// owns nothing: push and reply are full-slice-expression spans of the
// round's per-worker leg arenas (Engine.pushArenas, Engine.replyArenas), so
// no later append writes into them, and the tombstone lists are the
// senders' graveyard arrays themselves, or a crossing leg's freshly decoded
// copy — immutable either way, and adopted as they are by any receiver whose
// graveyard becomes exactly that list.
type exchange struct {
	ok     bool // initiator selected a target this round
	lost   bool // the push leg was dropped by the loss model
	target news.NodeID
	push   []overlay.Descriptor
	reply  []overlay.Descriptor // nil if lost or undeliverable
	// Departure tombstones piggybacked on the two legs (nil while the
	// graveyards are empty, in which case they add nothing to the wire
	// accounting).
	pushTombs  []overlay.Tombstone
	replyTombs []overlay.Tombstone
}

// legArena is one worker's arena for one kind of gossip leg, push or reply:
// during a round every leg of that kind the worker builds is appended to
// descs and handed on as a full-slice-expression span, so no later append
// writes into it. Between rounds descs is nil — the arena keeps no capacity,
// only the length each layer's last round reached, which sizes the next
// round's array: a round allocates it once instead of growing it by
// doubling, whose discarded arrays raised the sharded workload's peak RSS
// by about 9 %.
type legArena struct {
	descs []overlay.Descriptor
	hint  [2]int // per core.Layer: len(descs) when its last round closed
}

// open gives the arena its array for a round of layer l.
func (a *legArena) open(l core.Layer) {
	if h := a.hint[l]; h > 0 {
		a.descs = make([]overlay.Descriptor, 0, h)
	}
}

// close drops the round's array and remembers how much of it was used.
func (a *legArena) close(l core.Layer) {
	a.hint[l], a.descs = len(a.descs), nil
}

// encodeCrossShard walks the exchange table in global initiator order and
// appends every leg that crosses a shard boundary to the pooled
// (source, destination) batch buffer. One batch entry is
//
//	uvarint  initiator global dense index
//	descriptor list (overlay.AppendDescriptors)
//	tombstone list  (overlay.AppendTombstones)
//
// — the inter-shard ABI: a multi-process engine would write exactly these
// bytes to a pipe. The bytes are the whole of a descriptor: a profile's
// Σ score² is a function of its entries, so a decoded snapshot scores
// bit-identically to the one sent.
//
// For the push leg (reply=false) src is the initiator's shard and dst the
// responder's, and legs the absorb phase would never read (lost pushes,
// unknown/offline responders, responders without the layer) are skipped.
// For the reply leg (reply=true) the direction reverses and every non-nil
// reply crosses back to its initiator.
func (e *Engine) encodeCrossShard(exs []exchange, reply bool, layer core.Layer) {
	S := e.nshards
	for i := range e.xbufs {
		e.xbufs[i] = e.xbufs[i][:0]
	}
	for g := range exs {
		ex := &exs[g]
		var descs []overlay.Descriptor
		var tombs []overlay.Tombstone
		if reply {
			if ex.reply == nil {
				continue
			}
			descs, tombs = ex.reply, ex.replyTombs
		} else {
			if !ex.ok || ex.lost {
				continue
			}
			descs, tombs = ex.push, ex.pushTombs
		}
		ti, known := e.mem.idx[ex.target]
		if !known {
			continue
		}
		src, dst := e.shardOf(g), e.shardOf(ti)
		if reply {
			src, dst = dst, src
		}
		if src == dst {
			continue
		}
		if !reply {
			if r := e.onlinePeer(ex.target); r == nil || !r.Overlay().Has(layer) {
				continue // bucketing would drop it; don't ship dead traffic
			}
		}
		buf := e.xbufs[src*S+dst]
		buf = wire.AppendUint(buf, uint64(g))
		buf = overlay.AppendDescriptors(buf, descs)
		buf = overlay.AppendTombstones(buf, tombs)
		e.xbufs[src*S+dst] = buf
		e.stats.Crossings++
	}
	for _, buf := range e.xbufs {
		if len(buf) > 0 {
			e.stats.Batches++
			e.stats.BatchBytes += int64(len(buf))
		}
	}
}

// decodeCrossShard drains every destination shard's incoming batches, over
// the sources in ascending order and one destination per work item,
// replacing the crossing exchanges' in-memory slices with decoded copies
// before the absorbing phase reads them. Each crossing exchange appears in
// exactly one batch, so the per-destination writes are disjoint. Decoded
// descriptors land in a pooled per-shard arena, tombstones in a new one per
// call (shardDecode); subslices are fixed up only after the arenas stop
// growing. The
// batches are engine-produced, so a malformed byte is an invariant
// violation, not input — it panics.
func (e *Engine) decodeCrossShard(exs []exchange, reply bool) {
	S := e.nshards
	e.parallelSpans(S, func(_, d int) {
		sc := &e.xdec[d]
		// Receivers' graveyards may adopt a decoded tombstone list, so the
		// tombstone arena is a new array every time: one reused across
		// rounds would be overwritten under them.
		sc.descs, sc.tombs, sc.pending = sc.descs[:0], nil, sc.pending[:0]
		for src := 0; src < S; src++ {
			if src == d {
				continue
			}
			data := e.xbufs[src*S+d]
			for len(data) > 0 {
				g64, rest, err := wire.Uint(data)
				if err != nil {
					panic(fmt.Sprintf("sim: inter-shard batch corrupt (initiator index): %v", err))
				}
				pl := pendingLeg{g: int(g64), dlo: len(sc.descs), tlo: len(sc.tombs)}
				sc.descs, rest, err = sc.snaps.AppendDecode(sc.descs, rest)
				if err != nil {
					panic(fmt.Sprintf("sim: inter-shard batch corrupt (descriptors): %v", err))
				}
				pl.dhi = len(sc.descs)
				sc.tombs, rest, err = overlay.AppendDecodeTombstones(sc.tombs, rest)
				if err != nil {
					panic(fmt.Sprintf("sim: inter-shard batch corrupt (tombstones): %v", err))
				}
				pl.thi = len(sc.tombs)
				sc.pending = append(sc.pending, pl)
				data = rest
			}
		}
		for _, pl := range sc.pending {
			descs := sc.descs[pl.dlo:pl.dhi:pl.dhi]
			if pl.dhi == pl.dlo {
				descs = emptyDescriptors // preserve non-nil reply semantics
			}
			tombs := sc.tombs[pl.tlo:pl.thi:pl.thi]
			if pl.thi == pl.tlo {
				tombs = nil
			}
			if reply {
				exs[pl.g].reply, exs[pl.g].replyTombs = descs, tombs
			} else {
				exs[pl.g].push, exs[pl.g].pushTombs = descs, tombs
			}
		}
	})
}

// routeCrossShard ships one leg of the round between shards through the
// wire codec. At Shards=1 it is never called: every exchange stays an
// in-memory pointer hand-off, structurally identical to the pre-shard
// engine.
func (e *Engine) routeCrossShard(exs []exchange, reply bool, layer core.Layer) {
	e.encodeCrossShard(exs, reply, layer)
	e.decodeCrossShard(exs, reply)
}

// bucketByResponder groups successful pushes by responder, preserving
// initiator order inside each bucket and first-contact order across buckets.
// Exchanges whose push was lost or whose responder lacks the layer are
// dropped here, exactly as a lost or undeliverable datagram would be. The
// bucket storage (order, index map, per-bucket lists) is engine scratch
// reused across rounds.
func (e *Engine) bucketByResponder(exs []exchange, layer core.Layer) []news.NodeID {
	e.order = e.order[:0]
	clear(e.bucketIdx)
	for i := range exs {
		ex := &exs[i]
		if !ex.ok || ex.lost {
			continue
		}
		r := e.onlinePeer(ex.target)
		if r == nil || !r.Overlay().Has(layer) {
			continue
		}
		bi, seen := e.bucketIdx[ex.target]
		if !seen {
			bi = len(e.order)
			e.bucketIdx[ex.target] = bi
			e.order = append(e.order, ex.target)
			if len(e.bucketLists) <= bi {
				e.bucketLists = append(e.bucketLists, nil)
			}
			e.bucketLists[bi] = e.bucketLists[bi][:0]
		}
		e.bucketLists[bi] = append(e.bucketLists[bi], i)
	}
	return e.order
}

// computePushes is the first phase of a gossip round: every online initiator
// with the layer builds its push from the pre-round state, records it and
// draws its loss, in the engine's exchange table (one slot per member,
// reused across rounds).
func (e *Engine) computePushes(now int64, layer core.Layer, reqKind metrics.MessageKind) []exchange {
	n := len(e.mem.members)
	if cap(e.exs) < n {
		e.exs = make([]exchange, n)
	}
	exs := e.exs[:n] // all zero: gossipRound clears the table when the round ends
	e.parallelSpans(n, func(w, g int) {
		if e.mem.states[g] != Online {
			return
		}
		p := e.mem.members[g]
		s := p.Overlay()
		if !s.Has(layer) {
			return
		}
		if layer == core.WUPLayer {
			p.InjectRPSCandidates()
		}
		a := &e.pushArenas[w]
		lo := len(a.descs)
		target, descs, tombs, ok := s.MakePush(layer, a.descs, now)
		if !ok {
			return
		}
		a.descs = descs
		push := descs[lo:len(descs):len(descs)]
		e.cols[w].RecordMessage(reqKind, descriptorsWireSize(push)+overlay.TombstonesWireSize(tombs))
		exs[g] = exchange{
			ok: true, target: target, push: push, pushTombs: tombs,
			lost: e.lost(s.ID()) || e.linkDropped(s.ID(), target, now, reqKind, 0),
		}
	})
	return exs
}

// gossipRound drives one push-pull round for a gossip layer in three
// deterministic phases: all initiators compute their pushes from the
// pre-round state in parallel (MakePush touches only the initiator's own
// state; the WUP round first injects the RPS candidates, as each peer only
// touches its own two views there), responders absorb their incoming pushes
// grouped per responder in initiator order (AcceptPush touches only the
// responder), and initiators absorb the replies in parallel (AcceptReply
// touches only the initiator). The legs themselves are core.Substrate's; the
// determinism-critical ordering — including the loss-draw points — lives
// here, once for both layers.
//
// With Shards > 1 a routing step runs between the phases: exchange legs
// whose initiator and responder live in different shards are encoded into
// per-shard-pair batches through the wire codec and decoded against the
// destination shard's snapshot table (routeCrossShard), so the absorbing
// side reads a crossing leg only as the codec delivered it. The wire-byte
// accounting is recorded from the original descriptors before routing and
// is therefore bit-identical across shard counts.
//
// Both legs piggyback the sender's active departure tombstones (there are
// none unless Config.DepartureNotices lets leavers announce themselves),
// which is how a departure notice floods one neighbourhood horizon beyond
// the leaver's direct neighbours. The piggyback is the sender's graveyard
// array itself, never copied; a leg allocates only when its worker's arena
// grows or a receiver's tombstone set changes into something other than the
// list it received.
func (e *Engine) gossipRound(now int64, layer core.Layer, reqKind, repKind metrics.MessageKind) {
	for w := range e.pushArenas {
		e.pushArenas[w].open(layer)
		e.replyArenas[w].open(layer)
	}
	exs := e.computePushes(now, layer, reqKind)

	if e.nshards > 1 {
		e.routeCrossShard(exs, false, layer)
	}

	order := e.bucketByResponder(exs, layer)
	e.parallelSpans(len(order), func(w, bi int) {
		respID := order[bi]
		responder := e.onlinePeer(respID).Overlay()
		for _, i := range e.bucketLists[bi] {
			a := &e.replyArenas[w]
			lo := len(a.descs)
			descs, replyTombs := responder.AcceptPush(layer, a.descs, exs[i].push, exs[i].pushTombs, now)
			a.descs = descs
			reply := descs[lo:len(descs):len(descs)]
			e.cols[w].RecordMessage(repKind, descriptorsWireSize(reply)+overlay.TombstonesWireSize(replyTombs))
			if !e.lost(respID) && !e.linkDropped(respID, e.mem.members[i].Overlay().ID(), now, repKind, 0) {
				exs[i].reply = reply
				exs[i].replyTombs = replyTombs
			}
		}
	})

	if e.nshards > 1 {
		e.routeCrossShard(exs, true, layer)
	}

	e.parallelSpans(len(exs), func(_, g int) {
		if exs[g].reply != nil {
			e.mem.members[g].Overlay().AcceptReply(layer, exs[g].reply, exs[g].replyTombs, now)
		}
	})
	// The round is over: its pushes, replies and tombstone slices are
	// garbage, and so are the leg arenas, capacity included.
	clear(exs)
	for w := range e.pushArenas {
		e.pushArenas[w].close(layer)
		e.replyArenas[w].close(layer)
	}
}

// drain delivers queued BEEP messages to quiescence. Dissemination is
// instantaneous relative to gossip cycles, as in the paper's simulations.
// Messages are delivered in hop rounds: all sends of one hop are collected,
// put in a deterministic total order, and the round is delivered grouped
// per receiver; the sends it produces form the next round. A round's sends
// are envelopes over its message table (hop): each worker writes the
// messages its receivers forward into a table of its own, and the next hop's
// table is those tables laid end to end.
//
// BEEP envelopes cross shard boundaries as in-memory references rather than
// codec batches: item messages are engine-internal values whose identity the
// scenarios control (experiment worlds override item ids), so the hop's
// message table stays a shared value even at Shards > 1. A multi-process
// split would route the hop through core.ItemMessage's codec the same way
// gossip legs use routeCrossShard.
func (e *Engine) drain(now int64) {
	for len(e.hop.envs) > 0 {
		e.deliverRound(now)
	}
	// Hops truncate the scratch without zeroing it: release the table entries
	// left beyond len, each pinning an item profile, and keep only the capacity.
	e.hop.release()
	for w := range e.next {
		e.next[w].release()
	}
}

// deliverRound delivers one hop of BEEP traffic, consuming e.hop and leaving
// the next hop in it.
//
//whatsup:hotpath
func (e *Engine) deliverRound(now int64) {
	batch, msgs := e.hop.envs, e.hop.msgs
	// Total order: by receiver, then sender, then item. A node forwards a
	// given item at most once (SIR), so the triple is unique within a round
	// — which also makes the sorted order independent of how the previous
	// round's workers assembled the batch.
	//whatsup:allow:hotalloc non-escaping comparator closure
	slices.SortFunc(batch, func(a, b envelope) int {
		switch {
		case a.to != b.to:
			if a.to < b.to {
				return -1
			}
			return 1
		case a.from != b.from:
			if a.from < b.from {
				return -1
			}
			return 1
		case a.item < b.item:
			return -1
		case a.item > b.item:
			return 1
		default:
			return 0
		}
	})
	// Partition into per-receiver segments; each segment is applied by one
	// worker, so a receiver's state and RNG are touched by one goroutine and
	// always in the same (from, item) order.
	e.segs = e.segs[:0]
	for lo := 0; lo < len(batch); {
		hi := lo + 1
		for hi < len(batch) && batch[hi].to == batch[lo].to {
			hi++
		}
		e.segs = append(e.segs, segment{lo: lo, hi: hi}) //whatsup:alloc amortized growth of the cross-cycle segment scratch
		lo = hi
	}
	for w := range e.next {
		e.next[w].reset()
		e.delivBufs[w] = e.delivBufs[w][:0]
	}
	observe := e.cfg.OnDelivery != nil
	//whatsup:alloc per-round worker closure handed to parallelSpans
	e.parallelSpans(len(e.segs), func(w, si int) {
		seg := e.segs[si]
		recv := e.onlinePeer(batch[seg.lo].to)
		col, nx := e.cols[w], &e.next[w]
		for k := seg.lo; k < seg.hi; k++ {
			env := &batch[k]
			msg := &msgs[env.msg]
			col.RecordMessage(metrics.MsgBeep, msg.WireSize())
			if e.lost(env.to) || e.linkDropped(env.from, env.to, now, metrics.MsgBeep, uint64(env.item)) {
				continue
			}
			if recv == nil {
				continue
			}
			d, sends := nx.receive(recv, *msg, now)
			if d.Duplicate {
				continue
			}
			col.RecordDelivery(d)
			if observe {
				e.delivBufs[w] = append(e.delivBufs[w], d) //whatsup:alloc amortized growth of the per-worker delivery buffer
			}
			if len(sends) > 0 {
				col.RecordForward(d.Liked, d.Hops)
			}
			nx.add(env.to, sends)
		}
	})
	// Fire callbacks in segment (receiver) order — the workers' spans ascend
	// with the worker id, so the user-visible delivery sequence is identical
	// for any worker count — then assemble the next hop over the one just
	// consumed (the sort above normalizes its order): the workers' tables
	// end to end, each worker's envelopes shifted by its table's offset.
	if observe {
		for _, buf := range e.delivBufs {
			for _, d := range buf {
				e.cfg.OnDelivery(d, now)
			}
		}
	}
	e.hop.reset()
	for w := range e.next {
		nx := &e.next[w]
		base, lo := int32(len(e.hop.msgs)), len(e.hop.envs)
		e.hop.msgs = append(e.hop.msgs, nx.msgs...) //whatsup:alloc amortized growth of the hop's message table
		e.hop.envs = append(e.hop.envs, nx.envs...) //whatsup:alloc amortized growth of the hop's envelopes
		for k := lo; k < len(e.hop.envs); k++ {
			e.hop.envs[k].msg += base
		}
	}
}

// WUPGraph snapshots the directed graph formed by the online peers' WUP
// views, for the connectivity and clustering analyses (Figure 4,
// Section V-A). Offline and departed members contribute no edges (their
// views are wiped or frozen); peers without a clustering layer likewise.
// Node ids must be dense in [0, number of members) for the returned graph indices
// to be meaningful; engines built by the experiment harness guarantee this.
func (e *Engine) WUPGraph() *graph.Directed {
	g := graph.NewDirected(len(e.mem.members))
	for gi, p := range e.mem.members {
		if e.mem.states[gi] != Online {
			continue
		}
		s := p.Overlay()
		if !s.Has(core.WUPLayer) {
			continue
		}
		id := int(s.ID())
		s.WUP().View().ForEach(func(d overlay.Descriptor) {
			g.AddEdge(id, int(d.Node))
		})
	}
	return g
}
