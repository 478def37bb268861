// World: the runtime-neutral description of a workload, and the one place it
// is turned into a running engine.
//
// The paper evaluates one protocol on three workloads across three runtimes
// (Fig. 8): the workload is the constant. A World holds that constant — who
// is in the population and who arrives later, what each of them likes, what
// is published when, and how a peer is built — and Register, Publications
// and NewEngine are the only code that turns it into collector denominators,
// an engine schedule and a bootstrapped engine. Every simulation driver and
// the live runner's registration go through them, so two drivers cannot
// disagree on what a warm-up item, a joiner's recall denominator or a churn
// cohort is.
package sim

import (
	"fmt"
	"slices"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
)

// WorldItem is one scheduled publication with its ground-truth audience.
type WorldItem struct {
	// Cycle is the publication cycle; the item's Source publishes it.
	Cycle int64
	Item  news.Item
	// Interested is how many of the base population like the item.
	Interested int
	// Warmup marks an item of the initial transient: disseminated, feeding
	// profiles and traffic counters, but excluded from the quality metrics.
	Warmup bool
}

// World is a workload: a base population with ids [0, Peers), the peers a
// churn schedule adds later, everyone's opinions, and the item schedule.
// Producers (DatasetWorld, Communities) fill everything but NewPeer and
// Churn, which belong to the driver.
type World struct {
	Peers int
	// Opinions is the ground truth for every id the world can contain,
	// scheduled joiners included.
	Opinions core.Opinions
	Items    []WorldItem
	// Churn is the membership schedule both runtimes apply. Its ChurnJoin
	// events for ids at or past Peers are the world's joiners.
	Churn ChurnSchedule
	// NewPeer builds the peer with the given id: the base population at
	// engine construction and scheduled joiners when they arrive.
	NewPeer func(id news.NodeID) Peer
	// Interests is a node's recall denominator: how many of the world's items
	// it likes over the whole run.
	Interests func(id news.NodeID) int
	// Audience is an item's recall denominator: how many of the base peers
	// and the given scheduled joiners like it.
	Audience func(it *WorldItem, joiners []news.NodeID) int
}

// DatasetWorld describes one of the evaluation traces. Scheduled joiners
// inherit the interests of base user id mod Users, round-robin, so a flash
// crowd has trace-backed opinions; an item's audience grows by the joiners
// that like it, keeping item recall at most 1 with the crowd counted in.
func DatasetWorld(ds *dataset.Dataset) *World {
	mapped := func(id news.NodeID) news.NodeID {
		if int(id) >= ds.Users {
			return news.NodeID(int(id) % ds.Users)
		}
		return id
	}
	w := &World{
		Peers: ds.Users,
		Opinions: core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
			return ds.Likes(mapped(node), item)
		}),
		Items:     make([]WorldItem, len(ds.Items)),
		Interests: func(id news.NodeID) int { return ds.UserInterestCount(mapped(id)) },
	}
	w.Audience = func(it *WorldItem, joiners []news.NodeID) int {
		n := it.Interested
		for _, id := range joiners {
			if w.Opinions.Likes(id, it.Item.ID) {
				n++
			}
		}
		return n
	}
	for i := range ds.Items {
		it := ds.Items[i]
		w.Items[i] = WorldItem{Cycle: it.Cycle, Item: it.News, Interested: it.Interested, Warmup: ds.IsWarmup(i)}
	}
	return w
}

// Communities generates the synthetic benchmark world: peers split into
// equal interest communities (node n likes item i when they are congruent
// modulo communities) and itemsPerCycle items published every cycle of
// [1, cycles] from rotating sources. Item c·itemsPerCycle+k is titled
// "<titlePrefix>-c-k" and carries that number as its id. Audiences are the
// community's share of the population — joiners included, once a schedule
// brings some — and every node's interest count the community's share of
// the items, both by integer division as the benchmark trajectories have
// always counted them.
func Communities(peers, communities, itemsPerCycle, cycles int, titlePrefix string) *World {
	w := &World{
		Peers: peers,
		Opinions: core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
			return int(node)%communities == int(item)%communities
		}),
		Items:     make([]WorldItem, 0, cycles*itemsPerCycle),
		Interests: func(news.NodeID) int { return cycles * itemsPerCycle / communities },
		Audience: func(it *WorldItem, joiners []news.NodeID) int {
			if it.Interested == 0 {
				return 0 // an item of nobody's community (spam) stays that way
			}
			return (peers + len(joiners)) / communities
		},
	}
	for c := 1; c <= cycles; c++ {
		for k := 0; k < itemsPerCycle; k++ {
			seq := c*itemsPerCycle + k
			it := news.New(fmt.Sprintf("%s-%d-%d", titlePrefix, c, k), "d", "l", int64(c), news.NodeID(seq%peers))
			it.ID = news.ID(seq)
			w.Items = append(w.Items, WorldItem{Cycle: int64(c), Item: it, Interested: peers / communities})
		}
	}
	return w
}

// joinCycles returns the arrival cycle of each scheduled joiner (the first
// ChurnJoin event for an id past the base population) and the joiner ids in
// ascending order.
func (w *World) joinCycles() (map[news.NodeID]int64, []news.NodeID) {
	joined := make(map[news.NodeID]int64)
	var ids []news.NodeID
	for _, ev := range w.Churn.Events {
		if ev.Kind != ChurnJoin || int(ev.Node) < w.Peers {
			continue
		}
		if c, seen := joined[ev.Node]; !seen {
			ids = append(ids, ev.Node)
			joined[ev.Node] = ev.Cycle
		} else if ev.Cycle < c {
			joined[ev.Node] = ev.Cycle
		}
	}
	slices.Sort(ids)
	return joined, ids
}

// Register declares the world with a collector: every item with its audience
// (warm-up items excluded from the quality metrics), every base peer and
// scheduled joiner with its interest count, each joiner's join-time-aware
// recall denominator — a joiner can only ever receive items published from
// its arrival cycle on, so the fair figure counts those — and each node's
// churn cohort.
func (w *World) Register(col *metrics.Collector) {
	joined, joiners := w.joinCycles()
	for i := range w.Items {
		it := &w.Items[i]
		interested := w.Audience(it, joiners)
		if it.Warmup {
			col.RegisterWarmupItem(it.Item.ID, interested)
		} else {
			col.RegisterItem(it.Item.ID, interested)
		}
	}
	for u := 0; u < w.Peers; u++ {
		col.RegisterNode(news.NodeID(u), w.Interests(news.NodeID(u)))
	}
	for _, id := range joiners {
		col.RegisterNode(id, w.Interests(id))
		eligible := 0
		for i := range w.Items {
			if w.Items[i].Cycle >= joined[id] && w.Opinions.Likes(id, w.Items[i].Item.ID) {
				eligible++
			}
		}
		col.SetEligibleInterested(id, eligible)
	}
	//whatsup:commutative one label per node
	for id, c := range w.Churn.Cohorts() {
		col.SetCohort(id, c)
	}
}

// Publications converts the item schedule into engine publications.
func (w *World) Publications() []Publication {
	pubs := make([]Publication, len(w.Items))
	for i := range w.Items {
		it := &w.Items[i]
		pubs[i] = Publication{Cycle: it.Cycle, Source: it.Item.Source, Item: it.Item}
	}
	return pubs
}

// NewEngine assembles the world into a bootstrapped engine recording into a
// freshly registered collector. cfg carries the runtime-only parameters
// (seed, cycles, loss, links, workers, shards, churn-protocol switches,
// hooks); its Publications, Churn and NewPeer are filled from the world.
func (w *World) NewEngine(cfg Config) (*Engine, *metrics.Collector) {
	col := metrics.NewCollector()
	w.Register(col)
	cfg.Publications = w.Publications()
	cfg.Churn = w.Churn
	cfg.NewPeer = w.NewPeer
	peers := make([]Peer, w.Peers)
	for i := range peers {
		peers[i] = w.NewPeer(news.NodeID(i))
	}
	e := New(cfg, peers, col)
	e.Bootstrap()
	return e, col
}

// Cohorts derives each node's churn cohort from the schedule: nodes that end
// up departed are CohortDeparted, nodes that rejoined at least once (and
// survived) are CohortRejoiner, scheduled joiners are CohortJoiner, everyone
// else CohortStable (and absent from the map).
func (s ChurnSchedule) Cohorts() map[news.NodeID]metrics.Cohort {
	// The engine applies events in cycle order whatever the slice order, so
	// scan a cycle-sorted copy — otherwise a schedule listing a rejoin
	// before an earlier crash would mislabel the node as departed.
	events := slices.Clone(s.Events)
	sortByCycle(events)
	out := make(map[news.NodeID]metrics.Cohort)
	down := make(map[news.NodeID]bool) // offline at this point of the trace
	for _, ev := range events {
		c := metrics.CohortDeparted
		switch ev.Kind {
		case ChurnJoin:
			c = metrics.CohortJoiner
		case ChurnCrash:
			down[ev.Node] = true
			continue
		case ChurnRejoin:
			down[ev.Node] = false
			c = metrics.CohortRejoiner
		}
		out[ev.Node] = max(out[ev.Node], c)
	}
	for id, d := range down {
		if d {
			out[id] = metrics.CohortDeparted
		}
	}
	return out
}
