// Membership: the lifecycle-aware member table and the declarative churn
// schedule of the engine.
//
// The engine no longer assumes a frozen population. Every peer is a member
// with a lifecycle state (Online, Offline, Departed) and a stable dense
// index assigned at registration. Indices are never reused or compacted —
// a departed member keeps its slot — so the worker spans of the phase loop,
// the routing shards and the per-peer RNG streams are independent of how
// much churn a run has seen, which is what keeps results bit-identical for
// any worker count even under heavy join/leave/crash schedules.
//
// Churn is declarative: a ChurnSchedule lists membership events by cycle and
// the engine applies them serially at the start of the cycle, before any
// peer acts. Event application consumes randomness only from the engine
// stream of the affected peer (bootstrap sampling for joins and rejoins), so
// schedules compose with the determinism contract. What an event does to a
// peer's overlay state is core.Substrate's rule, the same for every peer
// type.
package sim

import (
	"cmp"
	"math/rand"
	"slices"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
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
	// ChurnJoin registers a brand-new peer (built by Config.NewPeer) and
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

// ChurnSchedule is a declarative membership trace: the engine applies the
// events of cycle c at the start of cycle c, in slice order for events
// sharing a cycle. An empty schedule reproduces the historical fixed-peer
// behaviour bit-identically. Invalid events (joins for existing ids, leaves
// for unknown ids, rejoins for members that are not offline) are skipped,
// mirroring how a real system tolerates stale membership commands.
type ChurnSchedule struct {
	Events []ChurnEvent
}

// Empty reports whether the schedule contains no events.
func (s ChurnSchedule) Empty() bool { return len(s.Events) == 0 }

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

// ColdStarter is the one optional peer interface: peers that support the
// paper's joining procedure (Section II-D), inheriting the views of a live
// contact. The engine uses it for scheduled joins; peers without it are
// seeded with a random online descriptor sample instead. Every other
// lifecycle rule (crash, leave, rejoin, departure notices) is core.Substrate's
// and therefore common to all peers.
type ColdStarter interface {
	ColdStart(inheritedRPS, inheritedWUP []overlay.Descriptor, now int64)
}
