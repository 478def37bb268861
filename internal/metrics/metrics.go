// Package metrics implements the evaluation metrics of the paper
// (Section IV-C): the user metrics precision, recall and F1-Score, and the
// system metrics (message counts, bandwidth, hop distributions), plus the
// popularity and sociability analyses of Figures 10 and 11.
package metrics

import (
	"fmt"
	"sort"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
)

// MessageKind classifies protocol traffic for the system metrics.
type MessageKind int

// Message kinds: BEEP item dissemination and the request/reply legs of the
// two gossip layers.
const (
	MsgBeep MessageKind = iota
	MsgRPSRequest
	MsgRPSReply
	MsgWUPRequest
	MsgWUPReply
	// Churn-protocol traffic (v2): departure notices sent by graceful
	// leavers and the request/reply legs of the anti-entropy view refill.
	MsgDeparture
	MsgRefillRequest
	MsgRefillReply
	numMessageKinds
)

// String implements fmt.Stringer.
func (k MessageKind) String() string {
	switch k {
	case MsgBeep:
		return "beep"
	case MsgRPSRequest:
		return "rps-request"
	case MsgRPSReply:
		return "rps-reply"
	case MsgWUPRequest:
		return "wup-request"
	case MsgWUPReply:
		return "wup-reply"
	case MsgDeparture:
		return "departure"
	case MsgRefillRequest:
		return "refill-request"
	case MsgRefillReply:
		return "refill-reply"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Cohort labels a node sub-population for churn-aware analysis: under a
// dynamic membership schedule, recall and precision are reported separately
// for the peers that stayed up, the late joiners, and the crash-and-return
// rejoiners (plus the departed, whose truncated participation would
// otherwise drag the population averages).
type Cohort uint8

// The churn cohorts. Ordered by precedence: when merging collectors the
// higher label wins, so a joiner that later crashes and rejoins ends up a
// rejoiner in every merge order.
const (
	CohortStable Cohort = iota
	CohortJoiner
	CohortRejoiner
	CohortDeparted
	// CohortVictim labels honest nodes singled out by an adversarial
	// scenario (e.g. the targets of a poisoning attack), so their outcomes
	// are reported separately from the untargeted honest population.
	CohortVictim
	// CohortAttacker labels hostile nodes (spammers, poisoners, sybils).
	// Highest precedence: a node that is both churned and hostile reports
	// as an attacker in every merge order.
	CohortAttacker
	NumCohorts
)

// String implements fmt.Stringer.
func (c Cohort) String() string {
	switch c {
	case CohortStable:
		return "stable"
	case CohortJoiner:
		return "joiner"
	case CohortRejoiner:
		return "rejoiner"
	case CohortDeparted:
		return "departed"
	case CohortVictim:
		return "victim"
	case CohortAttacker:
		return "attacker"
	default:
		return fmt.Sprintf("cohort(%d)", int(c))
	}
}

// ItemStats accumulates per-item dissemination outcomes.
type ItemStats struct {
	Interested        int  // users who like the item per the trace
	Reached           int  // users who received the item (including the source)
	ReachedInterested int  // reached ∩ interested
	Excluded          bool // warm-up item: disseminated but not measured
}

// NodeStats accumulates per-node outcomes for the sociability analysis.
type NodeStats struct {
	Interested        int // items this node likes per the trace
	Received          int // items delivered to this node
	ReceivedLiked     int // delivered items the node liked
	DislikeDeliveries int // deliveries that arrived via a dislike-forward
	// EligibleInterested is the join-time-aware recall denominator: the
	// node's liked items that were published after it joined. For nodes
	// present from the start it equals Interested (RegisterNode's default);
	// churn drivers lower it for late joiners via SetEligibleInterested, so
	// a flash-crowd member is not penalized for items that disseminated
	// before it existed. The trace-wide Interested stays alongside as the
	// conservative figure.
	EligibleInterested int
}

// F1 returns the node-level F1-Score: precision over received items and
// recall over the node's interests (Figure 11).
func (ns *NodeStats) F1() float64 {
	if ns.Received == 0 || ns.Interested == 0 {
		return 0
	}
	p := float64(ns.ReceivedLiked) / float64(ns.Received)
	r := float64(ns.ReceivedLiked) / float64(ns.Interested)
	return F1Of(p, r)
}

// Collector accumulates deliveries, forwards and message traffic for one
// experiment run. It is not safe for concurrent use; concurrent engines
// aggregate into per-worker collectors and Merge them.
type Collector struct {
	items   map[news.ID]*ItemStats
	nodes   map[news.NodeID]*NodeStats
	cohorts map[news.NodeID]Cohort // unlabelled nodes are CohortStable

	msgCount [numMessageKinds]int64
	msgBytes [numMessageKinds]int64

	// Hop histograms for Figure 6, indexed by hop distance.
	ForwardByLike      map[int]int
	ForwardByDislike   map[int]int
	InfectionByLike    map[int]int
	InfectionByDislike map[int]int

	// DislikesAtLikedArrival[d] counts deliveries liked by the receiver that
	// had been forwarded d times by dislikers (Table IV).
	DislikesAtLikedArrival map[int]int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		items:                  make(map[news.ID]*ItemStats),
		nodes:                  make(map[news.NodeID]*NodeStats),
		cohorts:                make(map[news.NodeID]Cohort),
		ForwardByLike:          make(map[int]int),
		ForwardByDislike:       make(map[int]int),
		InfectionByLike:        make(map[int]int),
		InfectionByDislike:     make(map[int]int),
		DislikesAtLikedArrival: make(map[int]int),
	}
}

// RegisterItem declares an item and the number of users interested in it
// (the recall denominator).
func (c *Collector) RegisterItem(id news.ID, interested int) {
	c.items[id] = &ItemStats{Interested: interested}
}

// RegisterWarmupItem declares an item published during the initial
// transient: its dissemination feeds profiles and traffic counters but it is
// excluded from the quality metrics, which measure the steady state.
func (c *Collector) RegisterWarmupItem(id news.ID, interested int) {
	c.items[id] = &ItemStats{Interested: interested, Excluded: true}
}

// RegisterNode declares a node and the number of items it likes in the
// trace (the per-node recall denominator of the sociability analysis). The
// join-aware denominator defaults to the same count; late joiners get a
// smaller one via SetEligibleInterested — in either call order: an eligible
// override already in place survives a later registration.
func (c *Collector) RegisterNode(id news.NodeID, interested int) {
	if ns := c.nodes[id]; ns != nil {
		ns.Interested = interested
		if ns.EligibleInterested == 0 {
			ns.EligibleInterested = interested
		}
		return
	}
	c.nodes[id] = &NodeStats{Interested: interested, EligibleInterested: interested}
}

// SetEligibleInterested overrides a node's join-time-aware recall
// denominator: the number of its liked items published after it joined.
// Registration-side, like RegisterNode — churn drivers call it once per
// scheduled joiner; engine shards never do.
func (c *Collector) SetEligibleInterested(id news.NodeID, eligible int) {
	ns := c.nodes[id]
	if ns == nil {
		ns = &NodeStats{}
		c.nodes[id] = ns
	}
	ns.EligibleInterested = eligible
}

// SetCohort labels a node's churn cohort (registration-side, like
// RegisterNode: experiment drivers call it once from the schedule; engine
// shards never do).
func (c *Collector) SetCohort(id news.NodeID, co Cohort) {
	if co == CohortStable {
		delete(c.cohorts, id)
		return
	}
	c.cohorts[id] = co
}

// CohortOf returns a node's cohort label (CohortStable when unlabelled).
func (c *Collector) CohortOf(id news.NodeID) Cohort { return c.cohorts[id] }

// CohortSummary aggregates the per-node outcomes of one cohort. Precision
// and recall here are micro-averages over the cohort's nodes — the
// per-cohort split of the sociability analysis's node-level quantities.
type CohortSummary struct {
	Cohort     Cohort
	Nodes      int
	Interested int // sum of per-node interest counts (recall denominator)
	// EligibleInterested sums the join-time-aware denominators: liked items
	// published after each node joined. Equals Interested for cohorts
	// present from the start.
	EligibleInterested int
	Received           int // deliveries to the cohort (precision denominator)
	ReceivedLiked      int // deliveries the receiving node liked
}

// Precision is the fraction of the cohort's deliveries that were liked.
func (s CohortSummary) Precision() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.ReceivedLiked) / float64(s.Received)
}

// Recall is the fraction of the cohort's interests that were satisfied.
func (s CohortSummary) Recall() float64 {
	if s.Interested == 0 {
		return 0
	}
	return float64(s.ReceivedLiked) / float64(s.Interested)
}

// EligibleRecall is the join-time-aware recall: the fraction of the
// cohort's *eligible* interests — liked items published after each node
// joined — that were satisfied. For a cohort of late joiners this is the
// fair figure; Recall, whose denominator spans the whole trace, stays
// alongside as the conservative one.
func (s CohortSummary) EligibleRecall() float64 {
	if s.EligibleInterested == 0 {
		return 0
	}
	return float64(s.ReceivedLiked) / float64(s.EligibleInterested)
}

// F1 is the harmonic mean of the cohort's precision and recall.
func (s CohortSummary) F1() float64 { return F1Of(s.Precision(), s.Recall()) }

// EligibleF1 pairs precision with the join-time-aware recall.
func (s CohortSummary) EligibleF1() float64 { return F1Of(s.Precision(), s.EligibleRecall()) }

// Dissemination is the average number of deliveries per cohort node.
func (s CohortSummary) Dissemination() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.Received) / float64(s.Nodes)
}

// CohortSummary folds the per-node statistics of every node labelled with
// the given cohort.
func (c *Collector) CohortSummary(co Cohort) CohortSummary {
	s := CohortSummary{Cohort: co}
	for _, id := range c.NodeIDs() {
		if c.CohortOf(id) != co {
			continue
		}
		ns := c.nodes[id]
		s.Nodes++
		s.Interested += ns.Interested
		s.EligibleInterested += ns.EligibleInterested
		s.Received += ns.Received
		s.ReceivedLiked += ns.ReceivedLiked
	}
	return s
}

// RecordDelivery folds a non-duplicate delivery into the per-item and
// per-node statistics and the Figure 6 / Table IV histograms.
func (c *Collector) RecordDelivery(d core.Delivery) {
	if d.Duplicate {
		return
	}
	st := c.items[d.Item]
	if st == nil {
		st = &ItemStats{}
		c.items[d.Item] = st
	}
	st.Reached++
	ns := c.nodes[d.Node]
	if ns == nil {
		ns = &NodeStats{}
		c.nodes[d.Node] = ns
	}
	ns.Received++
	if d.ViaDislike {
		ns.DislikeDeliveries++
		c.InfectionByDislike[d.Hops]++
	} else {
		c.InfectionByLike[d.Hops]++
	}
	if d.Liked {
		st.ReachedInterested++
		ns.ReceivedLiked++
		c.DislikesAtLikedArrival[d.Dislikes]++
	}
}

// RecordForward notes a forwarding action by a node at the given hop
// distance from the source (Figure 6). liked tells whether the forwarding
// node liked the item.
func (c *Collector) RecordForward(liked bool, hops int) {
	if liked {
		c.ForwardByLike[hops]++
	} else {
		c.ForwardByDislike[hops]++
	}
}

// RecordMessage accounts one protocol message of the given kind and size.
func (c *Collector) RecordMessage(kind MessageKind, bytes int) {
	c.msgCount[kind]++
	c.msgBytes[kind] += int64(bytes)
}

// Reset returns the collector to its empty state, ready for reuse as a
// per-worker shard.
func (c *Collector) Reset() {
	*c = *NewCollector()
}

// Messages returns the number of messages of one kind.
func (c *Collector) Messages(kind MessageKind) int64 { return c.msgCount[kind] }

// Bytes returns the traffic volume of one kind in bytes.
func (c *Collector) Bytes(kind MessageKind) int64 { return c.msgBytes[kind] }

// TotalMessages sums message counts across all kinds.
func (c *Collector) TotalMessages() int64 {
	var total int64
	for _, n := range c.msgCount {
		total += n
	}
	return total
}

// TotalBytes sums traffic volume across all kinds. In live runs each
// message is accounted at its exact encoded frame length (not an estimate),
// recorded sender-side: frames later dropped by loss or congestion still
// count, as in the paper's sender bandwidth figures.
func (c *Collector) TotalBytes() int64 {
	var total int64
	for _, n := range c.msgBytes {
		total += n
	}
	return total
}

// GossipMessages sums the RPS and WUP exchange legs plus the churn-protocol
// maintenance traffic (departure notices and refill exchanges) — everything
// that is overlay upkeep rather than BEEP dissemination.
func (c *Collector) GossipMessages() int64 {
	return c.msgCount[MsgRPSRequest] + c.msgCount[MsgRPSReply] +
		c.msgCount[MsgWUPRequest] + c.msgCount[MsgWUPReply] +
		c.msgCount[MsgDeparture] + c.msgCount[MsgRefillRequest] + c.msgCount[MsgRefillReply]
}

// GossipBytes sums the traffic volume of the same kinds as GossipMessages.
func (c *Collector) GossipBytes() int64 {
	return c.msgBytes[MsgRPSRequest] + c.msgBytes[MsgRPSReply] +
		c.msgBytes[MsgWUPRequest] + c.msgBytes[MsgWUPReply] +
		c.msgBytes[MsgDeparture] + c.msgBytes[MsgRefillRequest] + c.msgBytes[MsgRefillReply]
}

// ChurnSample is one per-cycle snapshot of churn-protocol health: how full
// the fleet's views are, how many departed ghosts they still hold and who is
// online, broken down by cohort. Sim and live churn drivers both report
// timelines of these samples instead of end-of-run aggregates.
type ChurnSample struct {
	// Cycle is the cycle the sample was taken at (start of cycle, after the
	// membership controller applied that cycle's churn events).
	Cycle int64
	// Online and Members count the online population and the total
	// registered membership (including offline and departed slots).
	Online, Members int
	// GhostFraction is the fraction of view entries across the online
	// population that reference nodes no longer online.
	GhostFraction float64
	// RPSFill and WUPFill are the mean view occupancy of the online
	// population, as a fraction of view capacity.
	RPSFill, WUPFill float64
	// OnlineByCohort counts the online population per churn cohort.
	OnlineByCohort [NumCohorts]int
	// PartitionsActive counts the faultnet partitions severing links at this
	// cycle (0 when no policy is installed), so a timeline shows the view
	// metrics dip while a partition holds and recover after it heals.
	PartitionsActive int
}

// FleetHealth accumulates one ChurnSample from the views of the online fleet.
// It is the single definition of ghost fraction, view fill and the per-cohort
// online split: the simulator feeds it engine state at the end of a cycle,
// the live runner feeds it views copied under each node's lock, and both
// read the same numbers out. Fill is total occupancy over total capacity,
// against each view's actual capacity.
type FleetHealth struct {
	sample        ChurnSample
	online        func(news.NodeID) bool
	refs, ghosts  int
	length, space [2]int // indexed by core.Layer
}

// NewFleetHealth starts a sample for the given cycle over a membership of
// members slots; online reports whether a referenced node is currently up.
func NewFleetHealth(cycle int64, members int, online func(news.NodeID) bool) *FleetHealth {
	return &FleetHealth{sample: ChurnSample{Cycle: cycle, Members: members}, online: online}
}

// AddNode counts one online member of the given cohort.
func (h *FleetHealth) AddNode(c Cohort) {
	h.sample.Online++
	h.sample.OnlineByCohort[c]++
}

// AddView folds one view of an online member: its occupancy against its
// capacity, and every entry that references a node no longer online.
func (h *FleetHealth) AddView(layer core.Layer, capacity int, entries []overlay.Descriptor) {
	h.length[layer] += len(entries)
	h.space[layer] += capacity
	h.refs += len(entries)
	for i := range entries {
		if !h.online(entries[i].Node) {
			h.ghosts++
		}
	}
}

// Sample returns the accumulated sample.
func (h *FleetHealth) Sample() ChurnSample {
	s := h.sample
	if h.refs > 0 {
		s.GhostFraction = float64(h.ghosts) / float64(h.refs)
	}
	if h.space[core.RPSLayer] > 0 {
		s.RPSFill = float64(h.length[core.RPSLayer]) / float64(h.space[core.RPSLayer])
	}
	if h.space[core.WUPLayer] > 0 {
		s.WUPFill = float64(h.length[core.WUPLayer]) / float64(h.space[core.WUPLayer])
	}
	return s
}

// sortedItems returns item ids in ascending order so floating-point
// aggregation is deterministic across runs (map iteration order is not).
func (c *Collector) sortedItems() []news.ID {
	ids := make([]news.ID, 0, len(c.items))
	//whatsup:commutative keys collected then sorted below
	for id := range c.items {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Precision is the macro-averaged precision over items that reached at
// least one user: the fraction of reached users that were interested.
func (c *Collector) Precision() float64 {
	var sum float64
	n := 0
	for _, id := range c.sortedItems() {
		st := c.items[id]
		if st.Reached == 0 || st.Excluded {
			continue
		}
		sum += float64(st.ReachedInterested) / float64(st.Reached)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Recall is the macro-averaged recall over items with at least one
// interested user: the fraction of interested users that were reached.
func (c *Collector) Recall() float64 {
	var sum float64
	n := 0
	for _, id := range c.sortedItems() {
		st := c.items[id]
		if st.Interested == 0 || st.Excluded {
			continue
		}
		sum += float64(st.ReachedInterested) / float64(st.Interested)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// F1 is the harmonic mean of Precision and Recall (van Rijsbergen).
func (c *Collector) F1() float64 { return F1Of(c.Precision(), c.Recall()) }

// Quality is the headline of a run: the macro item metrics of the paper's
// tables and the message total they cost.
type Quality struct {
	Precision float64
	Recall    float64
	F1        float64
	Messages  int64
}

// Quality reads the headline off the collector. Every exhibit row, run
// summary and the façade's Results go through it.
func (c *Collector) Quality() Quality {
	p, r := c.Precision(), c.Recall()
	return Quality{Precision: p, Recall: r, F1: F1Of(p, r), Messages: c.TotalMessages()}
}

// F1Of combines an externally obtained precision/recall pair.
func F1Of(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Item returns the statistics of one item (nil if unknown).
func (c *Collector) Item(id news.ID) *ItemStats { return c.items[id] }

// Node returns the statistics of one node (nil if unknown).
func (c *Collector) Node(id news.NodeID) *NodeStats { return c.nodes[id] }

// NodeIDs returns the registered node ids, sorted.
func (c *Collector) NodeIDs() []news.NodeID {
	out := make([]news.NodeID, 0, len(c.nodes))
	//whatsup:commutative keys collected then sorted below
	for id := range c.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DislikeFractions returns the Table IV row: for deliveries that the
// receiver liked, the fraction that had been forwarded 0,1,…,maxD times by
// dislikers.
func (c *Collector) DislikeFractions(maxD int) []float64 {
	total := 0
	for _, n := range c.DislikesAtLikedArrival {
		total += n
	}
	out := make([]float64, maxD+1)
	if total == 0 {
		return out
	}
	// Accumulate in ascending dislike-count order: several d values clamp
	// into the out[maxD] bucket, and float addition is order-sensitive in
	// the low bits, so raw map order would leak into the Table IV row.
	ds := make([]int, 0, len(c.DislikesAtLikedArrival))
	//whatsup:commutative keys collected then sorted below
	for d := range c.DislikesAtLikedArrival {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	for _, d := range ds {
		i := d
		if i > maxD {
			i = maxD
		}
		out[i] += float64(c.DislikesAtLikedArrival[d]) / float64(total)
	}
	return out
}
