package experiments

import (
	"fmt"
	"slices"
	"strings"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/sim"
)

// This driver exercises the engine's lifecycle-aware membership layer on a
// paper workload: a flash crowd of cold-starting joiners, trace-style
// crashes with rejoins, and graceful leaves, with descriptor-TTL eviction
// keeping the surviving views free of ghosts. Quality metrics are split per
// churn cohort — the population that stayed up, the late joiners and the
// rejoiners — because a single population average hides exactly the
// dynamics a churning deployment cares about.

// ChurnConfig tunes the churn scenario. The churn-protocol knobs
// (rate, flash crowd, downtime, eviction horizon, departure notices,
// refill) live in the embedded ChurnOptions, shared with the live
// scenario and the churn bench.
type ChurnConfig struct {
	ChurnOptions
	// Dataset is the workload name (default "survey").
	Dataset string
	// Fanout is fLIKE (default 10).
	Fanout int
	// Cycles overrides the run length (0 = dataset default).
	Cycles int
	// FlashPerCycle spreads the flash crowd over several cycles
	// (0 = ceil(FlashCrowd/5), so every crowd arrives within 5 cycles).
	FlashPerCycle int
	// TTL is the dislike TTL, with the RunConfig convention: 0 = paper
	// default (4), negative = explicit 0.
	TTL int
	// Loss is the uniform message-loss rate (Table VI), on top of churn.
	Loss float64
	// Workers is the engine worker pool (0 = serial).
	Workers int
	// Shards is the engine slab count (0 = single slab); results are
	// bit-identical for any value.
	Shards int
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	c.ChurnOptions = c.ChurnOptions.withDefaults(8)
	if c.Dataset == "" {
		c.Dataset = "survey"
	}
	if c.Fanout <= 0 {
		c.Fanout = 10
	}
	if c.FlashPerCycle <= 0 {
		c.FlashPerCycle = (c.FlashCrowd + 4) / 5
	}
	return c
}

// ChurnResult summarizes a churn run.
type ChurnResult struct {
	Dataset     string
	BaseUsers   int
	Joiners     int
	Cycles      int
	Events      int // scheduled membership events
	FinalOnline int

	// Whole-population quality (macro item metrics, as elsewhere).
	Precision, Recall, F1 float64

	// Per-cohort node-level splits.
	Stable, Joiner, Rejoiner, Departed metrics.CohortSummary

	// GhostFraction[i] is the fraction of descriptors in online views that
	// point at a non-online member at the end of cycle i+1.
	GhostFraction []float64
	// Timeline holds one fleet-health sample per cycle: online population,
	// ghost fraction, mean view fill and the per-cohort online counts.
	Timeline []metrics.ChurnSample
	// LastDeparture is the cycle of the last leave/crash event; HealedAt is
	// the first cycle >= LastDeparture with a ghost-free view set (-1 if
	// never healed within the run). TimeToHealed is HealedAt-LastDeparture
	// (-1 when the run never healed).
	LastDeparture int64
	HealedAt      int64
	TimeToHealed  int64
}

// churnOpinions maps joiner ids (>= base) onto base users' interests in
// round-robin, so flash-crowd joiners have trace-backed opinions.
type churnOpinions struct {
	base core.Opinions
	n    int
}

func (o churnOpinions) Likes(node news.NodeID, item news.ID) bool {
	if int(node) >= o.n {
		node = news.NodeID(int(node) % o.n)
	}
	return o.base.Likes(node, item)
}

// mapJoiner returns the base identity a joiner inherits.
func mapJoiner(id news.NodeID, base int) news.NodeID {
	if int(id) >= base {
		return news.NodeID(int(id) % base)
	}
	return id
}

// joinCyclesOf extracts each scheduled joiner's arrival cycle (the first
// ChurnJoin event for the id).
func joinCyclesOf(s sim.ChurnSchedule) map[news.NodeID]int64 {
	out := make(map[news.NodeID]int64)
	for _, ev := range s.Events {
		if ev.Kind != sim.ChurnJoin {
			continue
		}
		if c, seen := out[ev.Node]; !seen || ev.Cycle < c {
			out[ev.Node] = ev.Cycle
		}
	}
	return out
}

// eligibleInterests counts the items a joiner likes among those published at
// or after its join cycle — the join-time-aware recall denominator.
func eligibleInterests(ds *dataset.Dataset, op core.Opinions, id news.NodeID, joined int64) int {
	n := 0
	for i := range ds.Items {
		if ds.Items[i].Cycle >= joined && op.Likes(id, ds.Items[i].News.ID) {
			n++
		}
	}
	return n
}

// CohortsFromSchedule derives each node's churn cohort from the schedule:
// nodes that end up departed are CohortDeparted, nodes that rejoined at
// least once (and survived) are CohortRejoiner, scheduled joiners are
// CohortJoiner, everyone else CohortStable.
func CohortsFromSchedule(s sim.ChurnSchedule) map[news.NodeID]metrics.Cohort {
	// The engine applies events in cycle order whatever the slice order, so
	// scan a cycle-sorted copy — otherwise a schedule listing a rejoin
	// before an earlier crash would mislabel the node as departed.
	events := make([]sim.ChurnEvent, len(s.Events))
	copy(events, s.Events)
	slices.SortStableFunc(events, func(a, b sim.ChurnEvent) int {
		switch {
		case a.Cycle < b.Cycle:
			return -1
		case a.Cycle > b.Cycle:
			return 1
		default:
			return 0
		}
	})
	joined := make(map[news.NodeID]bool)
	rejoined := make(map[news.NodeID]bool)
	down := make(map[news.NodeID]bool) // offline or departed at end of trace
	gone := make(map[news.NodeID]bool)
	for _, ev := range events {
		switch ev.Kind {
		case sim.ChurnJoin:
			joined[ev.Node] = true
		case sim.ChurnCrash:
			down[ev.Node] = true
		case sim.ChurnRejoin:
			rejoined[ev.Node] = true
			down[ev.Node] = false
		case sim.ChurnLeave:
			gone[ev.Node] = true
		}
	}
	out := make(map[news.NodeID]metrics.Cohort)
	set := func(id news.NodeID, c metrics.Cohort) {
		if c > out[id] {
			out[id] = c
		}
	}
	for id := range joined {
		set(id, metrics.CohortJoiner)
	}
	for id := range rejoined {
		set(id, metrics.CohortRejoiner)
	}
	for id, d := range down {
		if d {
			set(id, metrics.CohortDeparted)
		}
	}
	for id := range gone {
		set(id, metrics.CohortDeparted)
	}
	return out
}

// ChurnRun executes the churn scenario.
func ChurnRun(o Options, cfg ChurnConfig) ChurnResult {
	o = o.WithDefaults()
	cfg = cfg.withDefaults()
	ds := datasetByName(cfg.Dataset, o)
	cycles := cfg.Cycles
	if cycles == 0 {
		cycles = ds.Cycles
	}

	op := churnOpinions{base: ds.Opinions(), n: ds.Users}
	nodeCfg := core.Config{
		FLike:         cfg.Fanout,
		DislikeTTL:    cfg.TTL,
		ProfileWindow: core.DefaultProfileWindow,
		DescriptorTTL: cfg.DescriptorTTL,
	}

	// Schedule: trace churn over the base population across the middle of
	// the run, plus a flash crowd a third in.
	churnFrom, churnTo := int64(cycles/4), int64(cycles-cycles/4)
	var schedule sim.ChurnSchedule
	if cfg.ChurnRate > 0 && churnTo > churnFrom {
		perCycle := cfg.ChurnRate / float64(churnTo-churnFrom)
		schedule.Merge(sim.ChurnTrace(sim.ChurnTraceConfig{
			Seed:      o.Seed + 7717,
			Nodes:     ds.Users,
			From:      churnFrom,
			To:        churnTo,
			CrashRate: perCycle / 2,
			LeaveRate: perCycle / 2,
			Downtime:  cfg.Downtime,
		}))
	}
	if cfg.FlashCrowd > 0 {
		schedule.Merge(sim.FlashCrowd(int64(cycles/3), news.NodeID(ds.Users), cfg.FlashCrowd, cfg.FlashPerCycle))
	}

	// Registration: base users from the trace; joiners inherit their mapped
	// identity's interest count, and each item's interested-denominator
	// grows by the joiners that like it (so item recall stays <= 1 with the
	// crowd counted in the population).
	col := metrics.NewCollector()
	joinerIDs := make([]news.NodeID, 0, cfg.FlashCrowd)
	for j := 0; j < cfg.FlashCrowd; j++ {
		joinerIDs = append(joinerIDs, news.NodeID(ds.Users+j))
	}
	for i := range ds.Items {
		it := ds.Items[i]
		interested := it.Interested
		for _, id := range joinerIDs {
			if op.Likes(id, it.News.ID) {
				interested++
			}
		}
		if ds.IsWarmup(i) {
			col.RegisterWarmupItem(it.News.ID, interested)
		} else {
			col.RegisterItem(it.News.ID, interested)
		}
	}
	for u := 0; u < ds.Users; u++ {
		col.RegisterNode(news.NodeID(u), ds.UserInterestCount(news.NodeID(u)))
	}
	joinCycles := joinCyclesOf(schedule)
	for _, id := range joinerIDs {
		col.RegisterNode(id, ds.UserInterestCount(mapJoiner(id, ds.Users)))
		// Join-time-aware recall denominator: a flash-crowd joiner can only
		// ever receive items published from its join cycle on, so the fair
		// figure counts those; the whole-trace denominator stays alongside.
		col.SetEligibleInterested(id, eligibleInterests(ds, op, id, joinCycles[id]))
	}
	for id, c := range CohortsFromSchedule(schedule) {
		col.SetCohort(id, c)
	}

	peers := make([]sim.Peer, ds.Users)
	for i := 0; i < ds.Users; i++ {
		peers[i] = core.NewNode(news.NodeID(i), "", nodeCfg, op, nodeRNG(o.Seed, i))
	}

	res := ChurnResult{
		Dataset:       cfg.Dataset,
		BaseUsers:     ds.Users,
		Joiners:       cfg.FlashCrowd,
		Cycles:        cycles,
		Events:        len(schedule.Events),
		GhostFraction: make([]float64, 0, cycles),
		LastDeparture: -1,
		HealedAt:      -1,
	}
	for _, ev := range schedule.Events {
		if (ev.Kind == sim.ChurnLeave || ev.Kind == sim.ChurnCrash) && ev.Cycle > res.LastDeparture {
			res.LastDeparture = ev.Cycle
		}
	}

	e := sim.New(sim.Config{
		Seed:             o.Seed,
		Cycles:           cycles,
		LossRate:         cfg.Loss,
		Workers:          cfg.Workers,
		Shards:           cfg.Shards,
		DepartureNotices: cfg.DepartureNotices,
		RefillWatermark:  cfg.RefillWatermark,
		Publications:     publications(ds),
		Churn:            schedule,
		NewPeer: func(id news.NodeID) sim.Peer {
			return core.NewNode(id, "", nodeCfg, op, nodeRNG(o.Seed, int(id)))
		},
		OnCycleEnd: func(e *sim.Engine, now int64) {
			s := churnSample(e, now)
			res.GhostFraction = append(res.GhostFraction, s.GhostFraction)
			res.Timeline = append(res.Timeline, s)
			if s.GhostFraction == 0 && now >= res.LastDeparture && res.HealedAt < 0 && res.LastDeparture >= 0 {
				res.HealedAt = now
			} else if s.GhostFraction > 0 {
				res.HealedAt = -1
			}
		},
	}, peers, col)
	e.Bootstrap()
	e.Run()

	res.FinalOnline = e.OnlineCount()
	res.TimeToHealed = -1
	if res.HealedAt >= 0 && res.LastDeparture >= 0 {
		res.TimeToHealed = res.HealedAt - res.LastDeparture
	}
	res.Precision, res.Recall, res.F1 = col.Precision(), col.Recall(), col.F1()
	res.Stable = col.CohortSummary(metrics.CohortStable)
	res.Joiner = col.CohortSummary(metrics.CohortJoiner)
	res.Rejoiner = col.CohortSummary(metrics.CohortRejoiner)
	res.Departed = col.CohortSummary(metrics.CohortDeparted)
	return res
}

// ghostFraction measures the self-healing state of the overlay: the
// fraction of descriptors across online RPS and WUP views that point at a
// member that is not online.
func ghostFraction(e *sim.Engine) float64 {
	total, ghosts := 0, 0
	count := func(id news.NodeID) {
		total++
		if st, ok := e.State(id); !ok || st != sim.Online {
			ghosts++
		}
	}
	for _, p := range e.OnlinePeers() {
		o := p.Overlay()
		o.RPS().View().ForEach(func(d overlay.Descriptor) { count(d.Node) })
		if o.Has(core.WUPLayer) {
			o.WUP().View().ForEach(func(d overlay.Descriptor) { count(d.Node) })
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ghosts) / float64(total)
}

// churnSample takes one fleet-health timeline sample from engine state at
// the end of a cycle: online population, ghost fraction, mean view occupancy
// across the online fleet, and per-cohort online counts.
func churnSample(e *sim.Engine, now int64) metrics.ChurnSample {
	s := metrics.ChurnSample{Cycle: now, Online: e.OnlineCount(), Members: e.MemberCount()}
	if links := e.Links(); links != nil {
		s.PartitionsActive = links.ActivePartitions(now)
	}
	total, ghosts := 0, 0
	var rpsLen, rpsCap, wupLen, wupCap int
	count := func(d overlay.Descriptor) {
		total++
		if st, ok := e.State(d.Node); !ok || st != sim.Online {
			ghosts++
		}
	}
	col := e.Collector()
	for _, p := range e.OnlinePeers() {
		o := p.Overlay()
		s.OnlineByCohort[col.CohortOf(o.ID())]++
		v := o.RPS().View()
		rpsLen += v.Len()
		rpsCap += v.Capacity()
		v.ForEach(count)
		if o.Has(core.WUPLayer) {
			v := o.WUP().View()
			wupLen += v.Len()
			wupCap += v.Capacity()
			v.ForEach(count)
		}
	}
	if total > 0 {
		s.GhostFraction = float64(ghosts) / float64(total)
	}
	if rpsCap > 0 {
		s.RPSFill = float64(rpsLen) / float64(rpsCap)
	}
	if wupCap > 0 {
		s.WUPFill = float64(wupLen) / float64(wupCap)
	}
	return s
}

// String renders the churn scenario summary.
func (r ChurnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Churn scenario (%s, %d base users +%d flash-crowd joiners, %d cycles, %d events, %d online at end)\n",
		r.Dataset, r.BaseUsers, r.Joiners, r.Cycles, r.Events, r.FinalOnline)
	fmt.Fprintf(&b, "  population: precision %.3f  recall %.3f  f1 %.3f\n", r.Precision, r.Recall, r.F1)
	b.WriteString("  cohort     nodes  precision  recall  recall*  f1     f1*    deliveries/node\n")
	for _, s := range []metrics.CohortSummary{r.Stable, r.Joiner, r.Rejoiner, r.Departed} {
		if s.Nodes == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s  %-5d  %-9.3f  %-6.3f  %-7.3f  %-5.3f  %-5.3f  %.1f\n",
			s.Cohort, s.Nodes, s.Precision(), s.Recall(), s.EligibleRecall(), s.F1(), s.EligibleF1(), s.Dissemination())
	}
	b.WriteString("  (* join-time-aware: denominator counts only items published after the node joined)\n")
	last := 0.0
	if len(r.GhostFraction) > 0 {
		last = r.GhostFraction[len(r.GhostFraction)-1]
	}
	fmt.Fprintf(&b, "  views: ghost-fraction(end)=%.4f last-departure=%s healed-at=%s time-to-healed=%s",
		last, cycleOrNone(r.LastDeparture), cycleOrNone(r.HealedAt), cyclesOrNone(r.TimeToHealed))
	if n := len(r.Timeline); n > 0 {
		end := r.Timeline[n-1]
		fmt.Fprintf(&b, "\n  fill(end): rps=%.2f wup=%.2f", end.RPSFill, end.WUPFill)
	}
	return b.String()
}

func cycleOrNone(c int64) string {
	if c < 0 {
		return "n/a"
	}
	return fmt.Sprintf("cycle %d", c)
}

func cyclesOrNone(c int64) string {
	if c < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d cycles", c)
}
