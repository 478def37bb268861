// Membership: the member table, the declarative churn schedule, and the one
// implementation of Section II-D's lifecycle rules both runtimes apply a
// schedule through.
//
// Every node is a member with a lifecycle state (Online, Offline, Departed)
// at a stable dense index: indices are never reused or compacted, so worker
// spans, routing shards and per-member RNG streams do not depend on how much
// churn a run has seen, and simulator results stay bit-identical for any
// worker count under any schedule. A runtime applies the events of cycle c
// serially at the start of cycle c (the simulator before any peer acts, the
// live controller at its c-th tick). Membership decides what an event means
// — its validity, a joiner's host, a rejoiner's bootstrap sample, the
// substrate calls; a runtime supplies only the side effects (MemberRuntime).
package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"

	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/prng"
)

// MemberState is the lifecycle state of one engine member.
type MemberState uint8

// The three lifecycle states. Transitions: a join registers a member as
// Online; Crash moves Online → Offline (volatile state lost, may return);
// Rejoin moves Offline → Online; Leave moves Online or Offline → Departed,
// which is final.
const (
	// Online members gossip, publish and receive.
	Online MemberState = iota
	// Offline members are crashed: they hold their durable state (profile)
	// but do not participate; messages addressed to them are dropped.
	Offline
	// Departed members left for good; their slot (and dense index) remains
	// so routing and RNG streams stay stable.
	Departed
)

// String implements fmt.Stringer.
func (s MemberState) String() string {
	switch s {
	case Online:
		return "online"
	case Offline:
		return "offline"
	case Departed:
		return "departed"
	default:
		return "unknown"
	}
}

// ChurnEventKind names one membership transition.
type ChurnEventKind uint8

// The scheduled membership transitions.
const (
	// ChurnJoin registers a brand-new peer (built by the runtime) and
	// bootstraps its views from the online population: it cold-starts from a
	// random online host's views when the peer supports ColdStarter,
	// otherwise from a random online descriptor sample.
	ChurnJoin ChurnEventKind = iota
	// ChurnLeave is a graceful, final departure.
	ChurnLeave
	// ChurnCrash abruptly takes a member offline, wiping its volatile state.
	ChurnCrash
	// ChurnRejoin brings a crashed member back online with its profile
	// retained but views wiped and re-seeded from an online sample.
	ChurnRejoin
)

// String implements fmt.Stringer.
func (k ChurnEventKind) String() string {
	switch k {
	case ChurnJoin:
		return "join"
	case ChurnLeave:
		return "leave"
	case ChurnCrash:
		return "crash"
	case ChurnRejoin:
		return "rejoin"
	default:
		return "unknown"
	}
}

// ChurnEvent schedules one membership transition for one node at one cycle.
type ChurnEvent struct {
	Cycle int64
	Kind  ChurnEventKind
	Node  news.NodeID
}

// ChurnSchedule is a declarative membership trace: a runtime applies the
// events of cycle c at the start of cycle c, in slice order for events
// sharing a cycle. An empty schedule reproduces the historical fixed-peer
// behaviour bit-identically. Invalid events (joins for existing ids, leaves
// for unknown ids, rejoins for members that are not offline) are skipped,
// mirroring how a real system tolerates stale membership commands.
type ChurnSchedule struct {
	Events []ChurnEvent
}

// Add appends one event and returns the schedule for chaining.
func (s *ChurnSchedule) Add(cycle int64, kind ChurnEventKind, node news.NodeID) *ChurnSchedule {
	s.Events = append(s.Events, ChurnEvent{Cycle: cycle, Kind: kind, Node: node})
	return s
}

// Merge appends another schedule's events and re-sorts by cycle (stable, so
// relative order within a cycle follows the concatenation order).
func (s *ChurnSchedule) Merge(other ChurnSchedule) *ChurnSchedule {
	s.Events = append(s.Events, other.Events...)
	sortByCycle(s.Events)
	return s
}

// sortByCycle orders events by cycle, keeping the slice order within one.
func sortByCycle(events []ChurnEvent) {
	slices.SortStableFunc(events, func(a, b ChurnEvent) int { return cmp.Compare(a.Cycle, b.Cycle) })
}

// FlashCrowd generates the flash-crowd arrival scenario: joiners new peers
// with consecutive ids starting at firstID, arriving perCycle at a time from
// the given start cycle — the breaking-news audience spike a production news
// system must absorb. perCycle <= 0 means all joiners arrive in one cycle.
func FlashCrowd(start int64, firstID news.NodeID, joiners, perCycle int) ChurnSchedule {
	if perCycle <= 0 {
		perCycle = joiners
	}
	var s ChurnSchedule
	for i := 0; i < joiners; i++ {
		s.Add(start+int64(i/perCycle), ChurnJoin, firstID+news.NodeID(i))
	}
	return s
}

// ChurnTraceConfig parameterizes ChurnTrace.
type ChurnTraceConfig struct {
	// Seed drives the trace generation (independent of the engine seed).
	Seed int64
	// Nodes subjects ids [0, Nodes) to churn.
	Nodes int
	// From and To bound the cycles in which departures are drawn
	// (rejoins may land after To).
	From, To int64
	// CrashRate is the per-node per-cycle probability of an abrupt crash.
	CrashRate float64
	// LeaveRate is the per-node per-cycle probability of a graceful,
	// permanent leave.
	LeaveRate float64
	// Downtime is how many cycles a crashed node stays offline before its
	// rejoin is scheduled; 0 means crashed nodes never return.
	Downtime int64
	// DowntimeJitter adds uniform extra downtime in [0, DowntimeJitter].
	DowntimeJitter int64
}

// ChurnTrace generates a trace-style schedule: every cycle in [From, To),
// each currently-up node crashes or leaves with the configured
// probabilities, and crashed nodes rejoin after Downtime (+ jitter) cycles.
// The generator tracks the up/down state it induces, so it never emits
// contradictory events (e.g. crashing a node that is already down). The
// trace depends only on the config, never on the simulation it is later
// applied to.
func ChurnTrace(cfg ChurnTraceConfig) ChurnSchedule {
	rng := rand.New(rand.NewSource(cfg.Seed))
	type status uint8
	const (
		up, down, gone status = 0, 1, 2
	)
	state := make([]status, cfg.Nodes)
	rejoinAt := make(map[int64][]news.NodeID)
	var s ChurnSchedule
	for c := cfg.From; c < cfg.To; c++ {
		for _, id := range rejoinAt[c] {
			s.Add(c, ChurnRejoin, id)
			state[int(id)] = up
		}
		delete(rejoinAt, c)
		for n := 0; n < cfg.Nodes; n++ {
			if state[n] != up {
				continue
			}
			switch f := rng.Float64(); {
			case f < cfg.CrashRate:
				s.Add(c, ChurnCrash, news.NodeID(n))
				state[n] = down
				if cfg.Downtime > 0 {
					back := c + cfg.Downtime
					if cfg.DowntimeJitter > 0 {
						back += rng.Int63n(cfg.DowntimeJitter + 1)
					}
					rejoinAt[back] = append(rejoinAt[back], news.NodeID(n))
				}
			case f < cfg.CrashRate+cfg.LeaveRate:
				s.Add(c, ChurnLeave, news.NodeID(n))
				state[n] = gone
			}
		}
	}
	// Flush rejoins scheduled past To, in cycle order for determinism.
	cycles := make([]int64, 0, len(rejoinAt))
	//whatsup:commutative keys collected then sorted below
	for c := range rejoinAt {
		cycles = append(cycles, c)
	}
	slices.Sort(cycles)
	for _, c := range cycles {
		for _, id := range rejoinAt[c] {
			s.Add(c, ChurnRejoin, id)
		}
	}
	return s
}

// ColdStarter is the one optional member interface: a joiner that has it
// inherits the views of a live contact (Section II-D); one without it is
// seeded with a random online descriptor sample. Every other lifecycle rule
// is core.Substrate's and therefore common to all peers.
type ColdStarter interface {
	ColdStart(inheritedRPS, inheritedWUP []overlay.Descriptor, now int64)
}

// MemberRuntime is a runtime's side of membership events: what an event
// does to one member beyond the Membership's rules. M is the member handle.
type MemberRuntime[M any] interface {
	// Hold runs fn inside h's critical section, at the clock h's state is
	// read and stamped at.
	Hold(h M, fn func(o *core.Substrate, now int64))
	// Start brings h online: up runs inside h's critical section, then
	// whatever drives h starts.
	Start(h M, now int64, up func(o *core.Substrate))
	// Stop takes the online h down: whatever drives h stops, down runs
	// inside h's critical section, then h's endpoint is torn down (on a
	// graceful leave, after delivering what down sent).
	Stop(h M, graceful bool, down func(o *core.Substrate))
	// Notify delivers the leaver's departure tombstone to an online member.
	Notify(leaver, to M, t overlay.Tombstone)
	// New builds a scheduled joiner's handle; ok false skips the join.
	New(id news.NodeID, now int64) (h M, ok bool)
}

// largeScaleMembers is the population from which host and bootstrap draws
// switch from O(n) scans and permutations to O(k) rejection sampling, since
// a per-peer rand.Perm over a million-member table is quadratic in time and
// allocation. Below it the historical draw sequence is reproduced exactly.
const largeScaleMembers = core.LargeScalePopulation

// Membership is the member table both runtimes apply a ChurnSchedule
// through, and the one implementation of its rules: members at stable dense
// indices, their lifecycle states, one engine stream per member, and the
// schedule's events by cycle. An event draws only from the stream of the
// member it concerns, so a joiner's host and a rejoiner's bootstrap sample
// depend on the seed and the online population, never on earlier draws.
//
// One goroutine writes the table (Add, Bootstrap, ApplyCycle). Lookup,
// Counts, Members and Health take the table's lock and are safe from any
// goroutine; a runtime's critical section may be held while taking it.
type Membership[M any] struct {
	seed    int64
	degree  int // bootstrap sample size
	notices bool
	events  map[int64][]ChurnEvent

	mu      sync.RWMutex
	idx     map[news.NodeID]int // node id -> dense index
	members []M
	states  []MemberState
	streams []*rand.Rand
	counts  [Departed + 1]int // members per state
}

// NewMembership builds an empty table for a run: degree is the bootstrap
// sample size (0: core.DefaultBootstrapDegree), notices makes a graceful
// leaver notify its view neighbours, size is the initial population.
func NewMembership[M any](seed int64, degree int, notices bool, churn ChurnSchedule, size int) *Membership[M] {
	if degree <= 0 {
		degree = core.DefaultBootstrapDegree
	}
	m := &Membership[M]{
		seed: seed, degree: degree, notices: notices,
		events:  make(map[int64][]ChurnEvent),
		idx:     make(map[news.NodeID]int, size),
		members: make([]M, 0, size),
		states:  make([]MemberState, 0, size),
		streams: make([]*rand.Rand, 0, size),
	}
	for _, ev := range churn.Events {
		m.events[ev.Cycle] = append(m.events[ev.Cycle], ev)
	}
	return m
}

// streamSeed derives the engine-side randomness seed of one member from the
// run seed with the splitmix64 finalizer, decorrelating the per-member
// streams from each other and from the affine node-level seeds.
func streamSeed(seed int64, id news.NodeID) uint64 {
	return prng.Mix(uint64(seed)*0x9E3779B97F4A7C15 + (uint64(id)+1)*0xBF58476D1CE4E5B9)
}

// Add registers h as Online at the next dense index without touching its
// views; an id already registered is left as it is.
func (m *Membership[M]) Add(id news.NodeID, h M) {
	if _, exists := m.idx[id]; !exists {
		m.add(id, h, prng.New(streamSeed(m.seed, id)))
	}
}

func (m *Membership[M]) add(id news.NodeID, h M, stream *rand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.idx[id] = len(m.members)
	m.members = append(m.members, h)
	m.states = append(m.states, Online)
	m.streams = append(m.streams, stream)
	m.counts[Online]++
}

func (m *Membership[M]) set(g int, st MemberState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[m.states[g]]--
	m.states[g] = st
	m.counts[st]++
}

// Lookup returns a member's handle and lifecycle state; ok is false (and
// the state Departed) for an id never registered.
func (m *Membership[M]) Lookup(id news.NodeID) (h M, st MemberState, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if g, ok := m.idx[id]; ok {
		return m.members[g], m.states[g], true
	}
	return h, Departed, false
}

// Counts returns how many members were ever registered and how many of
// them are online and offline; the rest departed.
func (m *Membership[M]) Counts() (members, online, offline int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.members), m.counts[Online], m.counts[Offline]
}

// Members returns copies of the member handles, in registration order, and
// of their states.
func (m *Membership[M]) Members() ([]M, []MemberState) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(m.members), slices.Clone(m.states)
}

// Health takes one fleet-health sample at cycle now (metrics.FleetHealth):
// every online member's cohort and views, each read inside its critical
// section; a member that went offline since the listing is skipped.
func (m *Membership[M]) Health(rt MemberRuntime[M], now int64, cohort func(news.NodeID) metrics.Cohort, links *faultnet.Policy) metrics.ChurnSample {
	online := func(id news.NodeID) bool {
		_, st, _ := m.Lookup(id)
		return st == Online
	}
	members, _, _ := m.Counts()
	h := metrics.NewFleetHealth(now, members, online)
	hs, states := m.Members()
	var buf []overlay.Descriptor
	for g, x := range hs {
		if states[g] != Online {
			continue
		}
		rt.Hold(x, func(o *core.Substrate, _ int64) {
			if !online(o.ID()) {
				return
			}
			h.AddNode(cohort(o.ID()))
			buf = o.RPS().View().AppendEntries(buf[:0])
			h.AddView(core.RPSLayer, o.RPS().View().Capacity(), buf)
			if o.Has(core.WUPLayer) {
				buf = o.WUP().View().AppendEntries(buf[:0])
				h.AddView(core.WUPLayer, o.WUP().View().Capacity(), buf)
			}
		})
	}
	s := h.Sample()
	if links != nil {
		s.PartitionsActive = links.ActivePartitions(now)
	}
	return s
}

// Bootstrap seeds every online member's views with a sample of the other
// online members, the initial random graph. Each member draws from its own
// stream, so the graph does not depend on how spans (nil: serially) splits
// the members across workers.
func (m *Membership[M]) Bootstrap(rt MemberRuntime[M], spans func(n int, fn func(g int))) {
	n := len(m.members)
	if n < 2 {
		return
	}
	seed := func(g int) {
		if m.states[g] == Online {
			boot := m.sample(rt, g, n, m.streams[g])
			rt.Hold(m.members[g], func(o *core.Substrate, _ int64) { o.SeedViews(boot) })
		}
	}
	if spans == nil {
		for g := range n {
			seed(g)
		}
		return
	}
	spans(n, seed)
}

// ApplyCycle applies the scheduled events of cycle now, in schedule order.
func (m *Membership[M]) ApplyCycle(rt MemberRuntime[M], now int64) {
	for _, ev := range m.events[now] {
		m.apply(rt, ev, now)
	}
}

// apply applies one membership event and reports whether it was valid. An
// event that does not fit the member's state — a join of a registered id, a
// crash of a member that is not online, a rejoin of one that is not offline,
// a leave of a departed one, anything about an unknown id — is skipped, as a
// real system tolerates stale membership commands.
func (m *Membership[M]) apply(rt MemberRuntime[M], ev ChurnEvent, now int64) bool {
	g, known := m.idx[ev.Node]
	if ev.Kind == ChurnJoin {
		if known {
			return false
		}
		h, ok := rt.New(ev.Node, now)
		if ok {
			m.join(rt, ev.Node, h, now)
		}
		return ok
	}
	if !known {
		return false
	}
	h, st := m.members[g], m.states[g]
	switch {
	case ev.Kind == ChurnLeave && st == Online:
		rt.Stop(h, true, func(o *core.Substrate) {
			if m.notices {
				m.notify(rt, h, o, now)
			}
			o.Leave()
			m.set(g, Departed)
		})
	case ev.Kind == ChurnLeave && st == Offline:
		rt.Hold(h, func(o *core.Substrate, _ int64) {
			o.Leave()
			m.set(g, Departed)
		})
	case ev.Kind == ChurnCrash && st == Online:
		rt.Stop(h, false, func(o *core.Substrate) {
			o.Crash()
			m.set(g, Offline)
		})
	case ev.Kind == ChurnRejoin && st == Offline:
		boot := m.sample(rt, g, len(m.members), m.streams[g])
		rt.Start(h, now, func(o *core.Substrate) {
			o.Rejoin(boot, now)
			m.set(g, Online)
		})
	default:
		return false
	}
	return true
}

// join registers h as a new member and bootstraps its views from the online
// population with draws from its own stream: a ColdStarter inherits the
// views of a random online host (Section II-D); any other joiner, or one
// whose host has no clustering layer, seeds from a random online sample. The
// draws range over the table with the joiner's future slot counted in (the
// historical draw), but the joiner enters the table only once its views are
// set, inside its critical section.
func (m *Membership[M]) join(rt MemberRuntime[M], id news.NodeID, h M, now int64) {
	self, stream := len(m.members), prng.New(streamSeed(m.seed, id))
	var rps, wup, boot []overlay.Descriptor
	cs, cold := any(h).(ColdStarter)
	if cold {
		host, ok := m.host(self, stream)
		cold = false
		if ok {
			rt.Hold(m.members[host], func(o *core.Substrate, _ int64) {
				if cold = o.Has(core.WUPLayer); cold {
					rps, wup = o.RPS().View().Entries(), o.WUP().View().Entries()
				}
			})
		}
	}
	if !cold {
		boot = m.sample(rt, self, self+1, stream)
	}
	rt.Start(h, now, func(o *core.Substrate) {
		if cold {
			cs.ColdStart(rps, wup, now)
		} else {
			o.SeedViews(boot)
		}
		m.add(id, h, stream)
	})
}

// host draws a uniformly random online member for the joiner about to take
// slot self: below the large-scale threshold by enumerating the candidates
// in index order, above it by a bounded rejection loop over the slots.
func (m *Membership[M]) host(self int, stream *rand.Rand) (int, bool) {
	if n := self + 1; n >= largeScaleMembers {
		for attempt := 0; attempt < 64; attempt++ {
			if g := stream.Intn(n); g != self && m.states[g] == Online {
				return g, true
			}
		}
		// Pathologically low online fraction: fall through to the exact scan.
	}
	candidates := m.counts[Online]
	if candidates == 0 {
		return 0, false
	}
	pick := stream.Intn(candidates)
	for g, st := range m.states {
		if st == Online {
			if pick == 0 {
				return g, true
			}
			pick--
		}
	}
	return 0, false
}

// sample draws up to the bootstrap degree of fresh descriptors of online
// members other than slot self from stream, over n slots that cover every
// member, each read at its member's clock: below the large-scale threshold
// in rand.Perm order, above it by rejection sampling.
func (m *Membership[M]) sample(rt MemberRuntime[M], self, n int, stream *rand.Rand) []overlay.Descriptor {
	descs := make([]overlay.Descriptor, 0, m.degree)
	read := func(o *core.Substrate, now int64) { descs = append(descs, o.Descriptor(now)) }
	take := func(g int) bool {
		if g == self || m.states[g] != Online {
			return false
		}
		rt.Hold(m.members[g], read)
		return true
	}
	if n < largeScaleMembers {
		// The walk below stops at the degree-th eligible slot, which no
		// permutation places beyond degree + the ineligible slots (self and
		// every member not online): only that prefix is ever read.
		eligible := m.counts[Online]
		if self < len(m.states) && m.states[self] == Online {
			eligible--
		}
		for _, g := range permPrefix(stream, n, min(n, m.degree+n-eligible)) {
			if take(g) && len(descs) == m.degree {
				break
			}
		}
		return descs
	}
	picked := make([]int, 0, m.degree)
	for attempt := 0; attempt < 8*m.degree+32 && len(picked) < m.degree; attempt++ {
		if g := stream.Intn(n); !slices.Contains(picked, g) && take(g) {
			picked = append(picked, g)
		}
	}
	return descs
}

// permPrefix returns stream.Perm(n)[:k] in O(k) memory, leaving stream
// where Perm leaves it: it draws exactly Perm's n values and runs its
// inside-out shuffle tracking only the first k positions. Position i takes
// position j's value and j takes i; a position at or beyond k is never read.
// overlay.SampleInto walks the same prefix over a view's entries, but skips
// the draws when it takes them all, which a stream shared with later events
// cannot.
func permPrefix(stream *rand.Rand, n, k int) []int {
	pre := make([]int, k)
	for i := 0; i < n; i++ {
		j := stream.Intn(i + 1)
		if i < k {
			pre[i] = pre[j]
		}
		if j < k {
			pre[j] = i
		}
	}
	return pre
}

// notify sends the leaver's departure tombstone to every online member its
// views name: the final courtesy of a graceful leave, while they still exist.
func (m *Membership[M]) notify(rt MemberRuntime[M], h M, o *core.Substrate, now int64) {
	t := overlay.Tombstone{Node: o.ID(), Stamp: now}
	for _, id := range o.FarewellRecipients() {
		if g, ok := m.idx[id]; ok && m.states[g] == Online {
			rt.Notify(h, m.members[g], t)
		}
	}
}
