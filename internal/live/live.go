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
// goroutines, envelopes, the codec, transports and membership control. The
// unit that crosses a transport is the encoded frame: a node's inbox holds
// pooled byte buffers, the node decodes each on its own goroutine, and a
// repeat receipt of an item it has seen — most item frames, under BEEP's
// redundancy — is dropped after a hash of the content bytes and one map
// probe, before anything is decoded (liveNode.onFrame). The runtime
// differs from the simulator in scheduling only: both pushes of a cycle
// leave at the tick, and messages arrive between ticks from peers whose
// clocks may lag, which is why the substrate's accept legs re-apply the
// descriptor-TTL horizon against the receiver's clock.
//
// A node's protocol state has one guard in every lifecycle state, its lock
// (liveNode.mu): the node goroutine holds it around each tick and each
// frame, the serving calls (serve.go) around each read or feedback, and the
// controller around each lifecycle change and each read of the node's views.
// Runner.mu guards only the membership bookkeeping. The lock order is node
// lock, then Runner.mu, then the collector lock; no path holds two node
// locks, and no node goroutine takes Runner.mu.
//
// Membership is dynamic: Config.Churn accepts the same declarative
// sim.ChurnSchedule the simulator runs, and a controller goroutine applies
// its events at cycle-tick boundaries. Joins spawn a fresh node goroutine
// that cold-starts from a live host's views (paper Section II-D), crashes
// tear the node's transport endpoints down abruptly — in-flight frames to
// the dead peer drop as congestion — graceful leaves flush pending batches
// first, and rejoins re-register with the transport and re-seed their wiped
// views from a sample of the online population. Event *timing* is wall-clock
// (whichever tick the controller reaches next), so unlike the simulator the
// exact interleaving of churn with in-flight traffic is not reproducible;
// the schedule itself — which node churns at which cycle — is.
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

	// frame, when non-nil, is the encoded frame of this envelope (uvarint
	// payload length, then payload), set by Runner.send. It is what the
	// transports carry — ChannelNet copies its payload into the receiver's
	// inbox, TCPNet appends it to the connection's batch — and its length is
	// what bandwidth accounting reports. It is only valid for the duration
	// of the Send call (the backing buffer is pooled) and is never itself
	// part of the wire format.
	frame []byte
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
	// Register allocates the inbound queue of a node and returns it. Each
	// element is one frame's payload in a pooled buffer that the receiver
	// owns: it decodes what it needs (decoded values never alias the buffer)
	// and returns the buffer with putBuf. The queue's capacity counts
	// frames; a frame arriving at a full queue is lost.
	// Registering an id again after Disconnect opens a fresh endpoint (a
	// rejoining node gets a new inbox and, on TCP, a new listener address).
	Register(id news.NodeID) <-chan *[]byte
	// Send delivers (or drops) an envelope asynchronously.
	Send(env envelope)
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
	// record costs a 136-byte ring slot, the item's strings and its packed
	// profile — 11–13 bytes an entry for content-hash ids, where a decoded
	// entry is 24 — and each Feed call decodes the records into one scratch
	// profile. Zero disables retention — the historical behaviour, and the
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
// own lock (liveNode.mu) and the membership bookkeeping by mu, so the read
// accessors (State, Members, OnlineCount, Timeline, Stats) and the serving
// surface (Snapshot, Feed, Feedback, Publish — see serve.go) are safe from
// any goroutine at any time, before, during and after Run.
type Runner struct {
	cfg   Config
	base  core.Opinions // the fleet's like/dislike ground truth, under per-node feedback
	net   Network
	col   *metrics.Collector
	colMu sync.Mutex

	// mu guards the membership bookkeeping below: running, fleet, order,
	// states and timeline. Writers: the controller only. It may be taken
	// while holding a node lock, never the other way round, and no node
	// goroutine takes it.
	mu      sync.RWMutex
	running bool
	fleet   map[news.NodeID]*liveNode
	order   []news.NodeID // registration order, joins appended
	states  map[news.NodeID]sim.MemberState
	churn   map[int64][]sim.ChurnEvent
	// ctrlRNG drives the controller's own sampling (cold-start hosts,
	// rejoin bootstrap); node randomness stays per-node.
	ctrlRNG *rand.Rand
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
	// inbox, quit and done belong to the node's current goroutine: the
	// controller makes them before it spawns one (newNode, rejoin) and closes
	// quit to stop it; done closes once it has exited.
	inbox <-chan *[]byte
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
}

// clock is the cycle the node's state is read and stamped at: its own while
// its goroutine runs, the fleet clock otherwise. The caller holds mu.
func (ln *liveNode) clock() int64 {
	if ln.online {
		return ln.cycle
	}
	return ln.runner.cycle.Load()
}

// nodeViews is a copy of both views of a node with their capacities
// (descriptors are immutable).
type nodeViews struct {
	rps, wup       []overlay.Descriptor
	rpsCap, wupCap int
}

// views copies both views of the node. The caller holds mu.
func (ln *liveNode) views() nodeViews {
	rps, wup := ln.node.RPS().View(), ln.node.WUP().View()
	return nodeViews{rps: rps.Entries(), wup: wup.Entries(), rpsCap: rps.Capacity(), wupCap: wup.Capacity()}
}

// nodeOpinions layers a user's live feedback (Runner.Feedback) on top of a
// base like/dislike trace. It is part of its node's protocol state, under
// the node's lock: core.Node.Receive reads it, Feedback writes overrides.
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
// alike — with a fresh transport endpoint, its clock starting at cycle.
func (r *Runner) newNode(id news.NodeID, cycle int64) *liveNode {
	ops := &nodeOpinions{self: id, base: r.base, over: make(map[news.ID]bool)}
	return &liveNode{
		runner: r,
		inbox:  r.net.Register(id),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		cycle:  cycle,
		node:   core.NewNode(id, "", r.cfg.NodeConfig, ops, nodeRNG(r.cfg.Seed, id)),
		ops:    ops,
	}
}

// NewRunner builds a live fleet over the given network.
func NewRunner(cfg Config, ds *dataset.Dataset, net Network) *Runner {
	cfg = cfg.withDefaults()
	r := &Runner{
		cfg:     cfg,
		base:    cfg.Opinions,
		net:     net,
		col:     metrics.NewCollector(),
		fleet:   make(map[news.NodeID]*liveNode, ds.Users),
		states:  make(map[news.NodeID]sim.MemberState, ds.Users),
		churn:   make(map[int64][]sim.ChurnEvent),
		ctrlRNG: rand.New(rand.NewSource(cfg.Seed*7919 + 17)),
	}
	for _, ev := range cfg.Churn.Events {
		r.churn[ev.Cycle] = append(r.churn[ev.Cycle], ev)
	}
	// The workload is declared to the collector exactly as the simulator
	// declares it: items, base nodes, scheduled joiners and cohorts.
	w := sim.DatasetWorld(ds)
	w.Churn = cfg.Churn
	w.Register(r.col)
	if r.base == nil {
		r.base = w.Opinions
	}
	initial := make([]*liveNode, 0, ds.Users)
	for u := 0; u < ds.Users; u++ {
		ln := r.newNode(news.NodeID(u), 0)
		initial = append(initial, ln)
		r.fleet[ln.node.ID()] = ln
		r.order = append(r.order, ln.node.ID())
		r.states[ln.node.ID()] = sim.Online
	}
	// Assign publications to their source nodes, in cycle order.
	for i := range ds.Items {
		src := ds.Items[i].News.Source
		if ln := r.fleet[src]; ln != nil {
			ln.pubs = append(ln.pubs, ds.Items[i])
		}
	}
	for _, ln := range initial {
		sort.SliceStable(ln.pubs, func(i, j int) bool { return ln.pubs[i].Cycle < ln.pubs[j].Cycle })
	}
	// Bootstrap: random initial views.
	boot := rand.New(rand.NewSource(cfg.Seed))
	for _, ln := range initial {
		var descs []overlay.Descriptor
		for _, j := range boot.Perm(len(initial)) {
			if news.NodeID(j) == ln.node.ID() {
				continue
			}
			descs = append(descs, initial[j].node.Descriptor(0))
			if len(descs) == core.DefaultBootstrapDegree {
				break
			}
		}
		ln.node.SeedViews(descs)
	}
	return r
}

// Collector returns the shared metrics collector. Safe to read after Run
// returns.
func (r *Runner) Collector() *metrics.Collector { return r.col }

// State returns the lifecycle state of a member; ok is false for ids the
// runner has never seen. Safe to call at any time, including while the
// fleet is running.
func (r *Runner) State(id news.NodeID) (sim.MemberState, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.states[id]
	return st, ok
}

// OnlineCount returns the number of members currently online. Safe to call
// at any time.
func (r *Runner) OnlineCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, st := range r.states {
		if st == sim.Online {
			n++
		}
	}
	return n
}

// MemberCount returns the number of members ever registered, including
// offline and departed ones. Safe to call at any time.
func (r *Runner) MemberCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.fleet)
}

// Node returns the node with the given id in any lifecycle state, or nil.
//
// Deprecated: Node hands out protocol state without the node's lock and is
// only safe once Run has returned. Use Snapshot, Feed, Feedback and Publish,
// which take the node's lock and are safe at any time.
func (r *Runner) Node(id news.NodeID) *core.Node {
	if ln := r.fleet[id]; ln != nil {
		return ln.node
	}
	return nil
}

// health takes one fleet-health sample (see metrics.FleetHealth, which the
// simulator feeds too) stamped with the given cycle. Safe to call at any
// time: each online node's views are copied under its lock — never while
// holding the collector lock, which a node may be waiting on — and a node a
// concurrent lifecycle stop took offline since the listing is skipped.
func (r *Runner) health(now int64) metrics.ChurnSample {
	r.mu.RLock()
	lns := make([]*liveNode, 0, len(r.order))
	for _, id := range r.order {
		if r.states[id] == sim.Online {
			lns = append(lns, r.fleet[id])
		}
	}
	r.mu.RUnlock()
	views := make([]nodeViews, 0, len(lns))
	ids := make([]news.NodeID, 0, len(lns))
	for _, ln := range lns {
		id := ln.node.ID()
		ln.mu.Lock()
		if st, _ := r.State(id); st == sim.Online {
			views = append(views, ln.views())
			ids = append(ids, id)
		}
		ln.mu.Unlock()
	}

	r.mu.RLock()
	h := metrics.NewFleetHealth(now, len(r.fleet), func(id news.NodeID) bool { return r.states[id] == sim.Online })
	for _, v := range views {
		h.AddView(core.RPSLayer, v.rpsCap, v.rps)
		h.AddView(core.WUPLayer, v.wupCap, v.wup)
	}
	r.mu.RUnlock()
	r.colMu.Lock()
	for _, id := range ids {
		h.AddNode(r.col.CohortOf(id))
	}
	r.colMu.Unlock()
	s := h.Sample()
	if r.cfg.Links != nil {
		s.PartitionsActive = r.cfg.Links.ActivePartitions(now)
	}
	return s
}

// GhostFraction measures the self-healing state of the overlay: the fraction
// of descriptors across online nodes' RPS and WUP views that point at a
// member that is not online.
func (r *Runner) GhostFraction() float64 { return r.health(r.Cycle()).GhostFraction }

// start marks a node online and launches its goroutine.
func (r *Runner) start(ln *liveNode) {
	ln.mu.Lock()
	ln.online = true
	ln.mu.Unlock()
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
	for _, id := range r.order {
		r.start(r.fleet[id])
	}
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
		r.applyChurn(c)
		if r.cfg.Timeline {
			s := r.health(c)
			r.mu.Lock()
			r.timeline = append(r.timeline, s)
			r.mu.Unlock()
		}
	}
	for _, id := range r.order {
		if r.states[id] == sim.Online {
			close(r.fleet[id].quit)
		}
	}
	r.wg.Wait()
	for _, id := range r.order {
		ln := r.fleet[id]
		ln.mu.Lock()
		ln.online = false
		ln.mu.Unlock()
	}
	r.net.Close()
	r.mu.Lock()
	r.running = false
	r.mu.Unlock()
}

// applyChurn applies the scheduled membership events of one cycle tick, in
// schedule order.
func (r *Runner) applyChurn(now int64) {
	for _, ev := range r.churn[now] {
		switch ev.Kind {
		case sim.ChurnJoin:
			r.join(ev.Node, now)
		case sim.ChurnLeave:
			r.stop(ev.Node, true, now)
		case sim.ChurnCrash:
			r.stop(ev.Node, false, now)
		case sim.ChurnRejoin:
			r.rejoin(ev.Node, now)
		}
	}
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

// randomOnline picks a uniformly random online member other than self, nil
// when none exists.
func (r *Runner) randomOnline(self news.NodeID) *liveNode {
	candidates := make([]news.NodeID, 0, len(r.order))
	for _, id := range r.order {
		if id != self && r.states[id] == sim.Online {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return r.fleet[candidates[r.ctrlRNG.Intn(len(candidates))]]
}

// onlineDescriptors samples up to core.DefaultBootstrapDegree fresh
// descriptors of online members (excluding self), each taken under the
// member's lock and stamped with its clock.
func (r *Runner) onlineDescriptors(self news.NodeID) []overlay.Descriptor {
	descs := make([]overlay.Descriptor, 0, core.DefaultBootstrapDegree)
	for _, j := range r.ctrlRNG.Perm(len(r.order)) {
		id := r.order[j]
		if id == self || r.states[id] != sim.Online {
			continue
		}
		host := r.fleet[id]
		host.mu.Lock()
		descs = append(descs, host.node.Descriptor(host.clock()))
		host.mu.Unlock()
		if len(descs) == core.DefaultBootstrapDegree {
			break
		}
	}
	return descs
}

// join registers a brand-new node and cold-starts it from a live host's
// views (paper Section II-D) before its goroutine spawns.
func (r *Runner) join(id news.NodeID, now int64) {
	if _, exists := r.fleet[id]; exists {
		return
	}
	ln := r.newNode(id, now)
	if host := r.randomOnline(id); host != nil {
		host.mu.Lock()
		v := host.views()
		host.mu.Unlock()
		ln.node.ColdStart(v.rps, v.wup, now)
	}
	r.mu.Lock()
	r.fleet[id] = ln
	r.order = append(r.order, id)
	r.states[id] = sim.Online
	r.mu.Unlock()
	r.start(ln)
}

// stop takes an online node down: its goroutine exits, its views are wiped,
// and its transport endpoints are torn down — abruptly on a crash (pending
// frames drop), flushing pending batches first on a graceful leave. With
// Config.DepartureNotices a graceful leaver first sends departure frames to
// its view neighbours (before the wipe, and before the graceful disconnect
// so the transport flushes them). The wipe and the lifecycle transition
// happen under the node's lock, so a serving call sees the node before the
// stop or after it, never half-wiped.
func (r *Runner) stop(id news.NodeID, graceful bool, now int64) {
	ln := r.fleet[id]
	if ln == nil || r.states[id] != sim.Online {
		return
	}
	close(ln.quit)
	<-ln.done
	ln.mu.Lock()
	ln.online = false
	if graceful && r.cfg.DepartureNotices {
		r.sendDepartureNotices(ln, now)
	}
	state := sim.Offline
	if graceful {
		ln.node.Leave()
		state = sim.Departed
	} else {
		ln.node.Crash()
	}
	r.mu.Lock()
	r.states[id] = state
	r.mu.Unlock()
	ln.mu.Unlock()
	r.net.Disconnect(id, graceful)
}

// sendDepartureNotices emits the leaver's departure frame to every online
// farewell recipient — its final courtesy messages, sent before Leave wipes
// the views.
func (r *Runner) sendDepartureNotices(ln *liveNode, now int64) {
	id := ln.node.ID()
	tombs := []overlay.Tombstone{{Node: id, Stamp: now}}
	for _, to := range ln.node.FarewellRecipients() {
		if r.states[to] == sim.Online {
			r.send(envelope{Kind: wireDeparture, From: id, To: to, Tombs: tombs})
		}
	}
}

// rejoin brings a crashed node back in place: a fresh transport endpoint,
// views re-seeded from an online sample, and a new goroutine continuing at
// the fleet's current cycle. The profile, opinions and feed are durable
// client state and carry over the downtime.
func (r *Runner) rejoin(id news.NodeID, now int64) {
	ln := r.fleet[id]
	if ln == nil || r.states[id] != sim.Offline {
		return
	}
	boot := r.onlineDescriptors(id)
	inbox := r.net.Register(id)
	ln.mu.Lock()
	ln.inbox, ln.quit, ln.done = inbox, make(chan struct{}), make(chan struct{})
	ln.cycle = now
	// Publications scheduled during the downtime never fire, like a post
	// from a crashed client (the simulator drops offline publications too).
	ln.pubIdx = sort.Search(len(ln.pubs), func(i int) bool { return ln.pubs[i].Cycle >= now })
	ln.node.Rejoin(boot, now)
	r.mu.Lock()
	r.states[id] = sim.Online
	r.mu.Unlock()
	ln.mu.Unlock()
	r.start(ln)
}

// record safely updates the shared collector.
func (r *Runner) record(fn func(col *metrics.Collector)) {
	r.colMu.Lock()
	defer r.colMu.Unlock()
	fn(r.col)
}

// send encodes the envelope once, accounts its exact framed length, and
// hands both the envelope and the frame bytes to the transport.
func (r *Runner) send(env envelope) {
	buf := getBuf()
	*buf = appendFrame(*buf, env)
	env.frame = *buf
	r.record(func(col *metrics.Collector) { col.RecordMessage(env.kind(), len(env.frame)) })
	r.net.Send(env)
	putBuf(buf)
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
	quit, inbox := ln.quit, ln.inbox
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
		case buf, ok := <-inbox:
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
	if target, push, tombs, ok := n.MakePush(layer, cycle); ok {
		ln.runner.send(envelope{Kind: gossipKinds[layer].request, From: n.ID(), To: target, Descs: push, Tombs: tombs})
	}
}

// answer runs the responder leg of a gossip exchange and sends the reply.
func (ln *liveNode) answer(layer core.Layer, env envelope, cycle int64) {
	reply, tombs := ln.node.AcceptPush(layer, env.Descs, env.Tombs, cycle)
	ln.runner.send(envelope{Kind: gossipKinds[layer].reply, From: ln.node.ID(), To: env.From, Descs: reply, Tombs: tombs})
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
// decode is a loss.
func (ln *liveNode) onFrame(buf *[]byte, cycle int64) {
	defer putBuf(buf)
	if env, ok := ln.decodeFrame(*buf); ok {
		ln.onMessage(env, cycle)
	}
}

// decodeFrame decodes a frame payload as far as this node needs it, asking
// the cheapest rejecting questions first. An item frame's id is recomputed
// from the content bytes where they lie (never taken from the sender), and
// when this node has already received that item, the frame is dropped
// without decoding anything: no strings, no profile, no allocation. A gossip frame is decoded against the node's own
// views: a descriptor the merge it is bound for would discard (of this node,
// of a tombstoned node, of a node already held at the same or a fresher
// stamp) is validated and never built, and a snapshot the other view holds
// is shared. ok is false for a duplicate and for a frame that does not
// decode. Nothing in env aliases payload.
func (ln *liveNode) decodeFrame(payload []byte) (env envelope, ok bool) {
	kind, _, _, body, err := envelopeHeader(payload)
	if err != nil {
		return envelope{}, false
	}
	if kind == wireItem {
		if id, err := core.PeekItemID(body); err == nil && ln.node.Seen(id) {
			return envelope{}, false
		}
	}
	ln.held = heldViews{node: ln.node, into: mergesInto[kind]}
	if decodePayload(&env, payload, &ln.held) != nil {
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
		reply := n.AcceptRefill(env.Descs, cycle)
		ln.runner.send(envelope{Kind: wireRefillReply, From: n.ID(), To: env.From, Descs: reply})
	case wireRefillReply:
		n.AcceptRefillReply(env.Descs, ln.runner.cfg.RefillWatermark, cycle)
	case wireItem:
		d, sends := n.Receive(env.Item, cycle)
		if d.Duplicate {
			return
		}
		if ln.runner.cfg.FeedCapacity > 0 {
			// Receive never writes the profile it was handed, so the feed
			// scores the item as it arrived. The snapshot is packed: one
			// exact-size allocation.
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
