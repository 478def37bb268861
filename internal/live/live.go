// Package live runs WhatsUp nodes as concurrent goroutines exchanging real
// messages, reproducing the paper's two deployment settings (Section V-D):
//
//   - ModelNet cluster emulation → ChannelNet: an in-memory network of Go
//     channels with configurable loss and latency injection;
//   - PlanetLab deployment → TCPNet: real TCP loopback sockets with bounded
//     per-node inbound queues whose overflow drops model the congestion of
//     overloaded PlanetLab nodes.
//
// Each peer runs in its own goroutine, driven by a cycle ticker; gossip
// exchanges are asynchronous request/reply messages rather than the
// simulator's synchronous calls, so the runtime exercises genuine
// concurrency, reordering and loss. Results are therefore not
// bit-deterministic — exactly like the testbeds they stand in for.
//
// The protocol itself is not this package's: a node's tick and every inbound
// gossip envelope are calls into the legs of core.Substrate, the same code
// the simulator drives (TestLegConformanceSimLive holds the two runtimes to
// identical views and traffic on a scripted exchange). The runtime owns
// goroutines, envelopes, the codec, transports and membership control.
//
// The unit that crosses a transport is the encoded envelope: the sender
// encodes it once into a pooled byte buffer, the transport takes the buffer
// over and moves its bytes into the receiver's inbox, and the node decodes
// each buffer on its own goroutine (liveNode.onFrame). That decode is the
// only validation a payload gets — TCPNet checks framing, never content —
// and a payload that does not decode is a loss. A repeat receipt of an
// item it has seen — most item frames, under BEEP's redundancy — is dropped
// after a hash of the content bytes and one lookup in its SIR set, before
// anything is decoded. A gossip frame's profile snapshots are not copied when
// they are decoded: a decoded snapshot borrows the frame until the merge
// settles; what a view keeps is copied once, before the buffer goes back to
// the pool.
//
// The runtime differs from the simulator in scheduling only: both pushes of
// a cycle leave at the tick, and messages arrive between ticks from peers
// whose clocks may lag, which is why the substrate's accept legs re-apply the
// descriptor-TTL horizon against the receiver's clock.
//
// A node's protocol state has one guard in every lifecycle state, its lock
// (liveNode.mu): the node goroutine holds it around each tick and each
// frame, the serving calls (serve.go) around each read or feedback, and the
// controller around each lifecycle change and each read of the node's views.
// The member table has its own lock, taken by its readers and by each table
// write; Runner.mu guards only the run flag and the timeline. The lock order
// is node lock, then the table's lock or Runner.mu, then the collector lock;
// no path holds two node locks, and no node goroutine takes either of the
// middle two.
//
// Membership is the simulator's: the controller applies Config.Churn (a
// sim.ChurnSchedule) through the same sim.Membership at cycle-tick
// boundaries, so every event picks the same host or bootstrap sample as in
// the simulator. The runtime supplies the side effects (fleet): a node runs
// as a goroutine on a transport endpoint, torn down abruptly on a crash
// (in-flight frames drop as congestion) and after flushing on a leave, and a
// departure notice is a frame. Event *timing* is wall-clock, so unlike the
// simulator the interleaving of churn with in-flight traffic is not
// reproducible; the schedule and every choice it makes are.
package live

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/faultnet"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/prng"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// wireKind tags the message types exchanged by live nodes.
type wireKind uint8

const (
	wireRPSRequest wireKind = iota
	wireRPSReply
	wireWUPRequest
	wireWUPReply
	wireItem
	// Churn protocol v2: the graceful leaver's departure notice and the two
	// legs of the anti-entropy view refill.
	wireDeparture
	wireRefillRequest
	wireRefillReply
)

// envelope is one message on a live network.
type envelope struct {
	Kind  wireKind
	From  news.NodeID
	To    news.NodeID
	Descs []overlay.Descriptor // gossip payload
	Tombs []overlay.Tombstone  // piggybacked departure notices (non-item kinds)
	Item  core.ItemMessage     // BEEP payload
}

func (e envelope) kind() metrics.MessageKind {
	switch e.Kind {
	case wireRPSRequest:
		return metrics.MsgRPSRequest
	case wireRPSReply:
		return metrics.MsgRPSReply
	case wireWUPRequest:
		return metrics.MsgWUPRequest
	case wireWUPReply:
		return metrics.MsgWUPReply
	case wireDeparture:
		return metrics.MsgDeparture
	case wireRefillRequest:
		return metrics.MsgRefillRequest
	case wireRefillReply:
		return metrics.MsgRefillReply
	default:
		return metrics.MsgBeep
	}
}

// Network is a transport for live runs. What it moves is frames as bytes;
// it never hands a node a decoded envelope.
type Network interface {
	// Register opens the inbound queue of a node and returns it. Each frame
	// taken from it is one payload in a pooled buffer that the receiver
	// owns: it decodes what it needs, settles what its views kept of it, and
	// returns the buffer with putBuf (liveNode.onFrame). The queue's bound
	// counts frames, and a frame arriving at a full queue is lost; it holds
	// slots only for the deepest backlog it has seen. Close ends every
	// queue once the frames already queued have been taken.
	// Registering an id again after Disconnect opens a fresh endpoint (a
	// rejoining node gets a new inbox and, on TCP, a new listener address).
	Register(id news.NodeID) *inbox
	// Send delivers (or drops) one encoded envelope from one node to another
	// asynchronously. payload is a pooled buffer holding exactly the
	// envelope's encoding (appendEnvelope); Send takes it over: the
	// transport delivers it or returns it with putBuf, and the caller
	// neither reads nor reuses it after the call.
	Send(from, to news.NodeID, payload *[]byte)
	// Disconnect tears down one node's endpoints. With graceful=false
	// (a crash) pending outbound batches to the node are discarded and its
	// connections close immediately, so in-flight frames drop as congestion;
	// with graceful=true (a leave) pending batches are flushed first.
	// Sends to a disconnected id drop without blocking.
	Disconnect(id news.NodeID, graceful bool)
	// Close tears the transport down.
	Close()
}

// Config parameterizes a live run.
type Config struct {
	// Seed drives workload scheduling and per-node randomness.
	Seed int64
	// Cycles to run; zero means the default of 30 and a negative value means
	// unbounded — the fleet runs until the context given to RunContext is
	// cancelled, the serving mode of cmd/whatsup-serve. CycleLength is the
	// real-time gossip period (the paper used 30 s on PlanetLab; tests use
	// milliseconds).
	Cycles      int
	CycleLength time.Duration
	// NodeConfig is the WhatsUp parameter set for every node.
	NodeConfig core.Config
	// OnDelivery, if set, observes every non-duplicate delivery. It is
	// invoked from node goroutines under the delivering node's lock and the
	// collector lock; keep it short.
	OnDelivery func(d core.Delivery)
	// Churn is the declarative membership schedule (shared with the
	// simulator): the events of cycle c are applied by the controller at the
	// c-th cycle tick, before the fleet's node tickers fire again. An empty
	// schedule reproduces the historical fixed-fleet behaviour. Joiners are
	// built like the base fleet and take the interests the workload gives
	// them (sim.DatasetWorld: those of base user id mod Users).
	Churn sim.ChurnSchedule
	// DepartureNotices enables the churn protocol's graceful-departure path:
	// a node stopped by a ChurnLeave sends departure frames to its view
	// neighbours before its transport flushes, and every node piggybacks its
	// active tombstones on outgoing gossip for one horizon. Off by default.
	DepartureNotices bool
	// RefillWatermark enables adaptive view refill: a node whose RPS or WUP
	// view occupancy falls under this fraction of capacity at a cycle tick
	// pulls an anti-entropy descriptor sample from its freshest surviving
	// neighbour. Zero disables refill.
	RefillWatermark float64
	// Timeline makes the controller sample a per-cycle metrics.ChurnSample
	// of the fleet (ghost fraction, view fill, online population by cohort),
	// copying each online node's views under its lock; read it with
	// Runner.Timeline after the run. Off by default — sampling costs one view
	// copy per online node per cycle.
	Timeline bool
	// Opinions overrides the dataset's like/dislike trace for the whole
	// fleet (nil keeps the dataset's). Serving fleets use this to supply an
	// interest model for items that are not part of any trace — e.g. articles
	// ingested from a real feed. Whatever the base, every node layers its own
	// feedback overrides (Runner.Feedback) on top.
	Opinions core.Opinions
	// FeedCapacity bounds the per-node feed: how many of the most recent
	// BEEP deliveries each node retains (item plus the item profile it
	// arrived with, packed) for Runner.Feed / Runner.Snapshot to serve. A
	// record costs a 144-byte ring slot on 64-bit platforms
	// (TestFeedRecordSize), the item's strings and its packed profile —
	// 11–13 bytes an entry for content-hash ids, where a decoded entry is
	// 24 — and each Feed call scores the packed bytes in place, decoding
	// nothing. Zero disables retention — the historical behaviour, and the
	// right setting for measurement runs that never read feeds.
	FeedCapacity int
	// Links is the per-link fault policy installed on the transport (via its
	// SetPolicy, keyed to Runner.Cycle). The runner itself only reads it to
	// annotate Timeline samples with the active partition count; injection
	// happens inside the transport.
	Links *faultnet.Policy
}

func (c Config) withDefaults() Config {
	if c.Cycles == 0 {
		c.Cycles = 30
	}
	if c.CycleLength <= 0 {
		c.CycleLength = 10 * time.Millisecond
	}
	return c
}

// Runner owns a fleet of live nodes over a Network. The fleet is dynamic:
// Run doubles as the membership controller, applying Config.Churn events at
// cycle-tick boundaries. Each node's protocol state is guarded by the node's
// own lock (liveNode.mu) and the member table by its own, so the read
// accessors (State, Members, OnlineCount, Timeline, Stats) and the serving
// surface (Snapshot, Feed, Feedback, Publish — see serve.go) are safe from
// any goroutine at any time, before, during and after Run.
type Runner struct {
	cfg   Config
	base  core.Opinions // the fleet's like/dislike ground truth, under per-node feedback
	net   Network
	col   *metrics.Collector
	colMu sync.Mutex

	// mem is the member table, written by the controller only; its
	// accessors take the table's own lock.
	mem *sim.Membership[*liveNode]
	// mu guards running and timeline. Writer: the controller. It may be
	// taken while holding a node lock, never the other way round.
	mu      sync.RWMutex
	running bool
	wg      sync.WaitGroup
	// cycle is the fleet clock, advanced by the controller at every tick.
	// Node loops resync their local counter to it, so a node whose ticker
	// dropped ticks under scheduler pressure does not fall behind: its
	// descriptor stamps and DescriptorTTL eviction horizon stay aligned
	// with the fleet, as a wall-clock deployment's would.
	cycle atomic.Int64
	// timeline is the per-cycle fleet health trace (Config.Timeline), owned
	// by the controller; read through Timeline after Run returns.
	timeline []metrics.ChurnSample
}

// liveNode wraps a core.Node with its goroutine state. One lock, mu, guards
// the node's protocol state in every lifecycle state: the node goroutine
// holds it around each tick and each frame, the serving calls around each
// read or feedback, the controller around each lifecycle change and each
// read of the node's views. The collector is shared and has its own lock.
type liveNode struct {
	runner *Runner
	// inbox, quit and done belong to the node's current goroutine: made
	// before it is spawned (inbox at NewRunner for the base fleet), quit
	// closed to stop it, done closed once it has exited.
	inbox *inbox
	quit  chan struct{}
	done  chan struct{}

	mu sync.Mutex
	// online is set while the node's goroutine runs: serving calls then take
	// the node's own clock, otherwise the fleet's, and Publish refuses an
	// offline node.
	online bool
	// cycle is the node's local clock. A joiner or rejoiner starts at the
	// fleet's cycle instead of 0, so its descriptor stamps are not instantly
	// older than every DescriptorTTL horizon; each tick resyncs it.
	cycle int64
	node  *core.Node
	// ops is the node's opinion layer: the base trace plus this user's
	// feedback overrides.
	ops *nodeOpinions
	// feed is the ring of the node's most recent BEEP deliveries
	// (Config.FeedCapacity). Once full, feedNext is the ring slot of the
	// oldest record (the next overwritten).
	feed     []feedRecord
	feedNext int
	pubs     []dataset.Item // items this node publishes, sorted by cycle
	// pubIdx is the next unpublished entry of pubs: publications catch up
	// to the node's clock instead of requiring an exact tick match, so a
	// dropped ticker tick delays a publication rather than losing it.
	pubIdx int
	// held is what onFrame decodes the current gossip frame against. It lives
	// here so that handing it to the decoder as an interface allocates nothing.
	held heldViews
	// descs is the buffer the current gossip frame's descriptors are decoded
	// into, and loan the arena their snapshots are borrowed from until the
	// frame's merge settles (onFrame).
	descs []overlay.Descriptor
	loan  overlay.Loan
	// legs is the buffer every gossip leg the node sends is built in.
	legs []overlay.Descriptor
	// item is the pooled scratch of the item frame being handled, taken by
	// decodeFrame for a first receipt and handed back by onFrame; nil
	// between frames.
	item *itemScratch
}

// clock is the cycle the node's state is read and stamped at: its own while
// its goroutine runs, the fleet clock otherwise. The caller holds mu.
func (ln *liveNode) clock() int64 {
	if ln.online {
		return ln.cycle
	}
	return ln.runner.cycle.Load()
}

// nodeOpinions layers a user's live feedback (Runner.Feedback) on top of a
// base like/dislike trace. It is part of its node's protocol state, under
// the node's lock: core.Node.AppendReceive reads it, Feedback writes overrides.
type nodeOpinions struct {
	self news.NodeID
	base core.Opinions
	over map[news.ID]bool
}

func (o *nodeOpinions) Likes(node news.NodeID, item news.ID) bool {
	if node == o.self {
		if liked, ok := o.over[item]; ok {
			return liked
		}
	}
	return o.base.Likes(node, item)
}

// feedRecord is one retained BEEP delivery: the item, the item profile it
// arrived with, and its receipt coordinates. The profile is kept packed
// (profile.Pack: exact-size bytes, about half the decoded entries), and a
// feed read scores it in place (feedEntries).
type feedRecord struct {
	item       news.Item
	profile    profile.Packed
	cycle      int64
	hops       int
	viaDislike bool
}

// feedPush appends a delivery to the node's feed ring, evicting the oldest
// record once Config.FeedCapacity is reached. The caller holds mu.
func (ln *liveNode) feedPush(rec feedRecord) {
	capacity := ln.runner.cfg.FeedCapacity
	if len(ln.feed) < capacity {
		ln.feed = append(ln.feed, rec)
		return
	}
	ln.feed[ln.feedNext] = rec
	ln.feedNext = (ln.feedNext + 1) % capacity
}

// feedAt returns the i-th record of the ring oldest-first, 0 ≤ i < len(feed).
// Until the ring is full feedNext is 0 and the order is the slice's own.
func (ln *liveNode) feedAt(i int) *feedRecord {
	return &ln.feed[(ln.feedNext+i)%len(ln.feed)]
}

// nodeRNG derives the seed generator of one node's own stream (see
// core.NewSubstrate), shared by the initial fleet and scheduled joiners.
func nodeRNG(seed int64, id news.NodeID) *rand.Rand {
	return prng.New(uint64(seed*999983 + int64(id)))
}

// newNode builds one fleet node — base population and scheduled joiners
// alike — its clock starting at cycle, without a transport endpoint or a
// goroutine yet.
func (r *Runner) newNode(id news.NodeID, cycle int64) *liveNode {
	ops := &nodeOpinions{self: id, base: r.base, over: make(map[news.ID]bool)}
	return &liveNode{
		runner: r,
		cycle:  cycle,
		node:   core.NewNode(id, "", r.cfg.NodeConfig, ops, nodeRNG(r.cfg.Seed, id)),
		ops:    ops,
	}
}

// ColdStart makes liveNode a sim.ColdStarter: a joiner inherits its host's
// views (Section II-D). The controller calls it under the node's lock.
func (ln *liveNode) ColdStart(inheritedRPS, inheritedWUP []overlay.Descriptor, now int64) {
	ln.node.ColdStart(inheritedRPS, inheritedWUP, now)
}

// NewRunner builds a live fleet over the given network.
func NewRunner(cfg Config, ds *dataset.Dataset, net Network) *Runner {
	cfg = cfg.withDefaults()
	r := &Runner{
		cfg:  cfg,
		base: cfg.Opinions,
		net:  net,
		col:  metrics.NewCollector(),
		mem:  sim.NewMembership[*liveNode](cfg.Seed, core.DefaultBootstrapDegree, cfg.DepartureNotices, cfg.Churn, ds.Users),
	}
	// The workload is declared to the collector exactly as the simulator
	// declares it: items, base nodes, scheduled joiners and cohorts.
	w := sim.DatasetWorld(ds)
	w.Churn = cfg.Churn
	w.Register(r.col)
	if r.base == nil {
		r.base = w.Opinions
	}
	for u := 0; u < ds.Users; u++ {
		ln := r.newNode(news.NodeID(u), 0)
		ln.inbox = net.Register(ln.node.ID())
		r.mem.Add(ln.node.ID(), ln)
	}
	// Assign publications to their source nodes, in cycle order.
	for i := range ds.Items {
		if ln, _, ok := r.mem.Lookup(ds.Items[i].News.Source); ok {
			ln.pubs = append(ln.pubs, ds.Items[i])
		}
	}
	initial, _ := r.mem.Members()
	for _, ln := range initial {
		sort.SliceStable(ln.pubs, func(i, j int) bool { return ln.pubs[i].Cycle < ln.pubs[j].Cycle })
	}
	r.mem.Bootstrap(fleet{r}, nil)
	return r
}

// Collector returns the shared metrics collector. Safe to read after Run
// returns.
func (r *Runner) Collector() *metrics.Collector { return r.col }

// State returns the lifecycle state of a member; ok is false for ids the
// runner has never seen. Safe to call at any time, including while the
// fleet is running.
func (r *Runner) State(id news.NodeID) (sim.MemberState, bool) {
	_, st, ok := r.mem.Lookup(id)
	return st, ok
}

// OnlineCount returns the number of members currently online. Safe to call
// at any time.
func (r *Runner) OnlineCount() int {
	_, online, _ := r.mem.Counts()
	return online
}

// Node returns the node with the given id in any lifecycle state, or nil.
//
// Deprecated: Node hands out protocol state without the node's lock and is
// only safe once Run has returned. Use Snapshot, Feed, Feedback and Publish,
// which take the node's lock and are safe at any time.
func (r *Runner) Node(id news.NodeID) *core.Node {
	if ln, _, ok := r.mem.Lookup(id); ok {
		return ln.node
	}
	return nil
}

// health takes one fleet-health sample at cycle now through the simulator's
// sampler (sim.Membership.Health). Safe to call at any time.
func (r *Runner) health(now int64) metrics.ChurnSample {
	return r.mem.Health(fleet{r}, now, func(id news.NodeID) metrics.Cohort {
		r.colMu.Lock()
		defer r.colMu.Unlock()
		return r.col.CohortOf(id)
	}, r.cfg.Links)
}

// GhostFraction measures the self-healing state of the overlay: the fraction
// of descriptors across online nodes' RPS and WUP views that point at a
// member that is not online.
func (r *Runner) GhostFraction() float64 { return r.health(r.Cycle()).GhostFraction }

// startFleet marks every member online and launches its goroutine.
func (r *Runner) startFleet() {
	lns, _ := r.mem.Members()
	for _, ln := range lns {
		ln.mu.Lock()
		ln.quit, ln.done, ln.online = make(chan struct{}), make(chan struct{}), true
		ln.mu.Unlock()
		r.spawn(ln)
	}
}

// stopFleet ends every online member's goroutine and marks all offline.
func (r *Runner) stopFleet() {
	lns, states := r.mem.Members()
	for i, ln := range lns {
		if states[i] == sim.Online {
			close(ln.quit)
		}
	}
	r.wg.Wait()
	for _, ln := range lns {
		ln.mu.Lock()
		ln.online = false
		ln.mu.Unlock()
	}
}

// spawn launches the node's goroutine; the node is already marked online.
func (r *Runner) spawn(ln *liveNode) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ln.loop()
	}()
}

// Run starts every node goroutine, drives the membership schedule at cycle
// boundaries for the configured number of cycles, then stops the fleet and
// returns. Equivalent to RunContext with a background context.
func (r *Runner) Run() { r.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the fleet shuts down at
// the first cycle boundary after ctx is cancelled. With a negative
// Config.Cycles the run is unbounded and cancellation is the only way it
// ends — the serving mode. While RunContext is executing, the concurrent
// accessors (State, Members, Stats, GhostFraction) and the serving surface
// (Snapshot, Feed, Feedback, Publish) are safe from any goroutine.
func (r *Runner) RunContext(ctx context.Context) {
	// Every node is online before the fleet reads as running, so a Publish
	// that finds the fleet running never finds a node yet to start.
	r.startFleet()
	r.mu.Lock()
	r.running = true
	r.mu.Unlock()
	ticker := time.NewTicker(r.cfg.CycleLength)
	defer ticker.Stop()
loop:
	for c := int64(1); r.cfg.Cycles < 0 || c <= int64(r.cfg.Cycles); c++ {
		select {
		case <-ctx.Done():
			break loop
		case <-ticker.C:
		}
		r.cycle.Store(c)
		r.mem.ApplyCycle(fleet{r}, c)
		if r.cfg.Timeline {
			s := r.health(c)
			r.mu.Lock()
			r.timeline = append(r.timeline, s)
			r.mu.Unlock()
		}
	}
	r.stopFleet()
	r.net.Close()
	r.mu.Lock()
	r.running = false
	r.mu.Unlock()
}

// Cycle returns the fleet's current gossip cycle (an atomic load). It is the
// clock to hand a transport's SetPolicy so scheduled partitions start and
// heal on fleet cycles rather than wall-clock time.
func (r *Runner) Cycle() int64 { return r.cycle.Load() }

// Timeline returns the per-cycle fleet health samples recorded so far when
// Config.Timeline is set. Safe to call at any time; the returned slice must
// not be appended to by the caller.
func (r *Runner) Timeline() []metrics.ChurnSample {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.timeline
}

// fleet is the live runtime's side of membership events. A node's critical
// section is its lock; it starts as a goroutine on a fresh transport
// endpoint, with its clock at the fleet's cycle, and stops by ending that
// goroutine before its state is wiped and tearing the endpoint down after —
// so a serving call sees a node before a lifecycle change or after it, never
// half-wiped. A departure notice is a frame.
type fleet struct{ r *Runner }

func (f fleet) Hold(ln *liveNode, fn func(*core.Substrate, int64)) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	fn(ln.node.Overlay(), ln.clock())
}

// Start opens the node's endpoint and spawns its goroutine. The profile,
// opinions and feed of a rejoiner are durable client state and carry over
// the downtime.
func (f fleet) Start(ln *liveNode, now int64, up func(*core.Substrate)) {
	inbox := f.r.net.Register(ln.node.ID())
	ln.mu.Lock()
	ln.inbox, ln.quit, ln.done = inbox, make(chan struct{}), make(chan struct{})
	ln.cycle = now
	// Publications scheduled during the downtime never fire, like a post
	// from a crashed client (the simulator drops offline publications too).
	ln.pubIdx = sort.Search(len(ln.pubs), func(i int) bool { return ln.pubs[i].Cycle >= now })
	up(ln.node.Overlay())
	ln.online = true
	ln.mu.Unlock()
	f.r.spawn(ln)
}

// Stop ends the node's goroutine, runs down, and disconnects the node from
// the transport — abruptly on a crash (pending frames drop), flushing
// pending batches, departure frames included, on a graceful leave.
func (f fleet) Stop(ln *liveNode, graceful bool, down func(*core.Substrate)) {
	close(ln.quit)
	<-ln.done
	ln.mu.Lock()
	ln.online = false
	down(ln.node.Overlay())
	ln.mu.Unlock()
	f.r.net.Disconnect(ln.node.ID(), graceful)
}

func (f fleet) Notify(leaver, to *liveNode, t overlay.Tombstone) {
	f.r.send(envelope{Kind: wireDeparture, From: leaver.node.ID(), To: to.node.ID(), Tombs: []overlay.Tombstone{t}})
}

func (f fleet) New(id news.NodeID, now int64) (*liveNode, bool) { return f.r.newNode(id, now), true }

// record safely updates the shared collector.
func (r *Runner) record(fn func(col *metrics.Collector)) {
	r.colMu.Lock()
	defer r.colMu.Unlock()
	fn(r.col)
}

// send encodes the envelope once into a pooled buffer, accounts the exact
// length of the frame a stream transport writes for it, and hands the buffer
// over to the transport.
func (r *Runner) send(env envelope) {
	buf := getBuf()
	*buf = appendEnvelope(*buf, env)
	n := frameLen(len(*buf))
	r.record(func(col *metrics.Collector) { col.RecordMessage(env.kind(), n) })
	r.net.Send(env.From, env.To, buf)
}

// loop is the node goroutine: a fleet-clock poll interleaved with inbound
// frame processing, each step under the node's lock.
//
// Nodes do not count their own ticks. The controller's fleet clock is the
// only cycle authority: the node polls it at twice the cycle rate and runs
// its periodic actions when the clock has advanced. A free-running per-node
// ticker would drift against the controller under scheduler pressure — in
// either direction — leaving descriptor stamps and DescriptorTTL horizons
// meaningless across the fleet (a departed node could end up stamped
// "fresher" than every survivor's eviction threshold). With the shared
// clock a node performs at most one RPS and one WUP exchange per fleet
// cycle, exactly like the simulator's peers; a starved node skips cycles
// instead of lagging (publications catch up through pubIdx).
func (ln *liveNode) loop() {
	defer close(ln.done)
	quit, box := ln.quit, ln.inbox
	poll := ln.runner.cfg.CycleLength / 2
	if poll <= 0 {
		poll = ln.runner.cfg.CycleLength
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-quit:
			return
		case <-ticker.C:
			ln.mu.Lock()
			if g := ln.runner.cycle.Load(); g > ln.cycle {
				ln.cycle = g
				ln.onCycle(g)
			}
			ln.mu.Unlock()
		case <-box.bell:
			// One frame a wake: take rings the bell again while frames
			// remain, so ticks and quit interleave with a backlog.
			buf, ok := box.take()
			if !ok {
				return
			}
			ln.mu.Lock()
			ln.onFrame(buf, ln.cycle)
			ln.mu.Unlock()
		}
	}
}

// gossipKinds maps a substrate layer to its request and reply wire kinds.
var gossipKinds = [...]struct{ request, reply wireKind }{
	core.RPSLayer: {wireRPSRequest, wireRPSReply},
	core.WUPLayer: {wireWUPRequest, wireWUPReply},
}

// onCycle runs the periodic protocol actions: cycle maintenance, adaptive
// view refill, RPS and WUP exchange initiation, and this node's scheduled
// publications. Every rule is core.Substrate's; the runtime only turns the
// legs into envelopes. Both pushes leave at the tick, so — unlike the
// simulator, whose WUP round starts after the RPS round has completed — the
// WUP push is built before this cycle's RPS reply is in.
func (ln *liveNode) onCycle(cycle int64) {
	n := ln.node
	n.BeginCycle(cycle)
	ln.refill(cycle)
	ln.initiate(core.RPSLayer, cycle)
	ln.initiate(core.WUPLayer, cycle)

	for ln.pubIdx < len(ln.pubs) && ln.pubs[ln.pubIdx].Cycle <= cycle {
		it := ln.pubs[ln.pubIdx]
		ln.pubIdx++
		for _, s := range n.Publish(it.News, cycle) {
			ln.runner.send(envelope{Kind: wireItem, From: n.ID(), To: s.To, Item: s.Msg})
		}
	}
}

// refill sends the anti-entropy pull when Config.RefillWatermark says one is
// due.
func (ln *liveNode) refill(cycle int64) {
	n := ln.node
	if wm := ln.runner.cfg.RefillWatermark; wm > 0 {
		if target, ok := n.RefillTarget(wm); ok {
			req := []overlay.Descriptor{n.Descriptor(cycle)}
			ln.runner.send(envelope{Kind: wireRefillRequest, From: n.ID(), To: target, Descs: req})
		}
	}
}

// initiate opens this cycle's exchange on one gossip layer.
func (ln *liveNode) initiate(layer core.Layer, cycle int64) {
	n := ln.node
	if layer == core.WUPLayer {
		n.InjectRPSCandidates()
	}
	if target, push, tombs, ok := n.MakePush(layer, ln.legs[:0], cycle); ok {
		ln.sendLeg(envelope{Kind: gossipKinds[layer].request, From: n.ID(), To: target, Descs: push, Tombs: tombs})
	}
}

// answer runs the responder leg of a gossip exchange and sends the reply.
func (ln *liveNode) answer(layer core.Layer, env envelope, cycle int64) {
	reply, tombs := ln.node.AcceptPush(layer, ln.legs[:0], env.Descs, env.Tombs, cycle)
	ln.sendLeg(envelope{Kind: gossipKinds[layer].reply, From: ln.node.ID(), To: env.From, Descs: reply, Tombs: tombs})
}

// sendLeg sends a gossip leg built in ln.legs. send has encoded the
// descriptors into a payload by the time it returns, so the buffer keeps its
// capacity for the next leg but not its contents, which would pin profile
// snapshots.
func (ln *liveNode) sendLeg(env envelope) {
	ln.runner.send(env)
	clear(env.Descs)
	ln.legs = env.Descs[:0]
}

// mergeTargets names the views a gossip frame's descriptors are merged into.
type mergeTargets struct{ rps, wup bool }

// mergesInto is what onMessage does with each kind's descriptors: the
// exchange's own layer, the RPS view for a refill request (it is answered
// like an RPS push), both for a refill reply. An item frame carries no
// descriptors and nothing reads a departure notice's.
var mergesInto = [...]mergeTargets{
	wireRPSRequest:    {rps: true},
	wireRPSReply:      {rps: true},
	wireWUPRequest:    {wup: true},
	wireWUPReply:      {wup: true},
	wireRefillRequest: {rps: true},
	wireRefillReply:   {rps: true, wup: true},
}

// heldViews is the overlay.Holder a node decodes a gossip frame against: its
// own views and graveyard, asked about the merges this frame is bound for.
type heldViews struct {
	node *core.Node
	into mergeTargets
}

func (h *heldViews) Held(node news.NodeID, stamp int64) (overlay.Descriptor, bool) {
	return h.node.Held(node, stamp, h.into.rps, h.into.wup)
}

// onFrame handles one inbound frame payload and returns its buffer to the
// pool: what decodeFrame makes of it is dispatched; a frame that does not
// decode is a loss. Before the buffer goes back, the merge settles: each
// snapshot borrowed from the frame that a view kept is replaced with one
// owned copy (core.Substrate.Settle), and the decoded list is emptied. An
// item frame's scratch goes back too: by then its forwards are encoded and
// the feed has packed its own copy of the profile.
func (ln *liveNode) onFrame(buf *[]byte, cycle int64) {
	if env, ok := ln.decodeFrame(*buf); ok {
		ln.onMessage(env, cycle)
	}
	ln.node.Settle(&ln.loan)
	clear(ln.descs)
	ln.descs = ln.descs[:0]
	if s := ln.item; s != nil {
		clear(s.sends) // each send pins a profile and the item's strings
		s.sends = s.sends[:0]
		ln.item = nil
		scratchPool.Put(s)
	}
	putBuf(buf)
}

// decodeFrame decodes a frame payload as far as this node needs it, asking
// the cheapest rejecting questions first. An item frame's id is recomputed
// from the content bytes where they lie (never taken from the sender), and
// when this node has already received that item, the frame is dropped
// without decoding anything: no strings, no profile, no allocation. A first
// receipt's item profile is decoded into pooled scratch (ln.item), which
// onMessage folds and forwards in.
//
// A gossip frame is decoded against the node's own views, into ln.descs: a
// descriptor the merge it is bound for would discard (of this node, of a
// tombstoned node, of a node already held at the same or a fresher stamp) is
// validated and never built, a snapshot the other view holds is shared, and
// any other snapshot is borrowed from the payload (ln.loan). A decoded
// snapshot borrows the frame until the merge settles; what a view keeps is
// copied once (onFrame). ok is false for a duplicate and for a frame that
// does not decode.
func (ln *liveNode) decodeFrame(payload []byte) (env envelope, ok bool) {
	kind, _, _, body, err := envelopeHeader(payload)
	if err != nil {
		return envelope{}, false
	}
	if kind == wireItem {
		if id, err := core.PeekItemID(body); err == nil && ln.node.Seen(id) {
			return envelope{}, false
		}
		if len(payload) <= maxScratchFrame {
			ln.item = scratchPool.Get().(*itemScratch)
			env.Item.Profile = &ln.item.arrived
		}
	}
	ln.held = heldViews{node: ln.node, into: mergesInto[kind]}
	env.Descs = ln.descs[:0]
	err = decodePayload(&env, payload, &ln.held, &ln.loan)
	ln.descs = env.Descs
	if err != nil {
		return envelope{}, false
	}
	return env, true
}

// onMessage dispatches one inbound envelope to the substrate leg it carries.
// cycle is the node's own clock: the accept legs re-apply the DescriptorTTL
// horizon against it, because unlike the simulator's barrier-aligned peers a
// live sender may be a tick behind.
func (ln *liveNode) onMessage(env envelope, cycle int64) {
	n := ln.node
	switch env.Kind {
	case wireRPSRequest:
		ln.answer(core.RPSLayer, env, cycle)
	case wireWUPRequest:
		ln.answer(core.WUPLayer, env, cycle)
	case wireRPSReply:
		n.AcceptReply(core.RPSLayer, env.Descs, env.Tombs, cycle)
	case wireWUPReply:
		n.AcceptReply(core.WUPLayer, env.Descs, env.Tombs, cycle)
	case wireDeparture:
		for _, t := range env.Tombs {
			n.NoteDeparture(t, cycle)
		}
	case wireRefillRequest:
		reply := n.AcceptRefill(ln.legs[:0], env.Descs, cycle)
		ln.sendLeg(envelope{Kind: wireRefillReply, From: n.ID(), To: env.From, Descs: reply})
	case wireRefillReply:
		n.AcceptRefillReply(env.Descs, ln.runner.cfg.RefillWatermark, cycle)
	case wireItem:
		// A frame decoded into pooled scratch is folded and forwarded in it
		// too; one too large for the pool (maxScratchFrame) in its own.
		s := ln.item
		if s == nil {
			s = new(itemScratch)
		}
		d, sends := n.AppendReceive(s.sends[:0], &s.folded, env.Item, cycle)
		s.sends = sends
		if d.Duplicate {
			return
		}
		if ln.runner.cfg.FeedCapacity > 0 {
			// Receive never writes the profile it was handed, so the feed
			// scores the item as it arrived. The snapshot is packed: one
			// exact-size allocation, a copy that outlives the scratch.
			ln.feedPush(feedRecord{
				item:       env.Item.Item,
				profile:    env.Item.Profile.Pack(),
				cycle:      cycle,
				hops:       d.Hops,
				viaDislike: d.ViaDislike,
			})
		}
		ln.runner.record(func(col *metrics.Collector) {
			col.RecordDelivery(d)
			if len(sends) > 0 {
				col.RecordForward(d.Liked, d.Hops)
			}
			if ln.runner.cfg.OnDelivery != nil {
				ln.runner.cfg.OnDelivery(d)
			}
		})
		for _, s := range sends {
			ln.runner.send(envelope{Kind: wireItem, From: n.ID(), To: s.To, Item: s.Msg})
		}
	}
}
