package live

import (
	"cmp"
	"errors"
	"slices"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/sim"
)

// This file is the runner's serving surface: the concurrent read/feedback
// API that internal/api exposes over HTTP. Every method is safe from any
// goroutine at any time. A call on a node holds the node's lock, the one
// guard of its protocol state in every lifecycle state, so it runs between
// the node goroutine's ticks and frames while the node is online and between
// the controller's lifecycle changes while it is not.

var (
	// ErrUnknownNode reports an id the runner has never registered.
	ErrUnknownNode = errors.New("live: unknown node")
	// ErrNodeOffline reports an operation that needs the node's goroutine
	// running (publishing) while the node is crashed or departed.
	ErrNodeOffline = errors.New("live: node offline")
	// ErrNotRunning reports an operation that needs the fleet's controller
	// (publishing) outside a Run.
	ErrNotRunning = errors.New("live: fleet not running")
	// ErrDegraded reports a fleet serving in degraded mode: a majority of
	// its non-departed members are offline, so feeds are going stale and
	// clients should back off and retry rather than trust the answer.
	ErrDegraded = errors.New("live: fleet degraded")
)

// FeedEntry is one ranked recommendation in a node's feed: a BEEP-delivered
// item together with how the node's current profile scores it.
type FeedEntry struct {
	Item news.Item
	// Score ranks the entry: the node metric's similarity between the user
	// profile and the item profile the item arrived with, biased by the
	// user's own rating (+1 liked, −1 disliked) so feedback visibly
	// reorders the feed.
	Score float64
	// Rated and Liked reflect the user profile's current entry for the item
	// (the initial opinion or the latest Feedback).
	Rated bool
	Liked bool
	// Cycle is the fleet cycle the item arrived at this node; Hops and
	// ViaDislike describe its dissemination path.
	Cycle      int64
	Hops       int
	ViaDislike bool
}

// NodeSnapshot is a consistent point-in-time view of one node's protocol
// state, taken while the node was between message handlers.
type NodeSnapshot struct {
	ID    news.NodeID
	State sim.MemberState
	// Cycle is the node's local cycle at snapshot time (offline nodes report
	// the fleet clock).
	Cycle int64
	// ProfileSize is the number of entries in the user profile P̃.
	ProfileSize int
	// RPSView and WUPView are copies of the two overlay views.
	RPSView []overlay.Descriptor
	WUPView []overlay.Descriptor
	// FeedSize is the number of deliveries the node's feed retains.
	FeedSize int
}

// Member summarizes one fleet member's lifecycle state.
type Member struct {
	ID    news.NodeID
	State sim.MemberState
}

// FleetStats is a point-in-time roll-up of the fleet and its metrics.
type FleetStats struct {
	Cycle     int64
	Members   int
	Online    int
	Precision float64
	Recall    float64
	F1        float64
	Messages  int64
	Bytes     int64
}

// withNode runs fn under the node's lock, with the node's clock (its own
// cycle while its goroutine runs, the fleet clock otherwise), and returns
// what fn returns. fn may take Runner.mu or the member table's lock, which
// come after a node lock in the lock order, but no other node's lock.
func (r *Runner) withNode(id news.NodeID, fn func(ln *liveNode, cycle int64) error) error {
	ln, _, ok := r.mem.Lookup(id)
	if !ok {
		return ErrUnknownNode
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return fn(ln, ln.clock())
}

// Feed returns the node's current feed, ranked best-first: descending
// score, then most recent arrival, then item id. The slice is the caller's.
// Works in every lifecycle state (an offline node serves the feed it
// retained, like a disconnected client rendering its cache) — unless the
// fleet as a whole is Degraded, in which case Feed refuses with ErrDegraded
// so clients back off instead of reading feeds the mesh can no longer keep
// fresh.
func (r *Runner) Feed(id news.NodeID) ([]FeedEntry, error) {
	if r.Degraded() {
		return nil, ErrDegraded
	}
	var out []FeedEntry
	err := r.withNode(id, func(ln *liveNode, cycle int64) error {
		out = ln.feedEntries()
		return nil
	})
	return out, err
}

// Degraded reports whether a majority of the fleet's non-departed members
// are offline — the mesh has lost quorum for dissemination, so feeds stop
// improving until nodes come back. Safe to call at any time: it reads the
// member table's two counters.
func (r *Runner) Degraded() bool {
	_, online, offline := r.mem.Counts()
	return online+offline > 0 && online*2 < online+offline
}

// feedEntries builds the ranked feed from the node's ring, walked in place
// oldest record first, under the node's lock (via withNode). Each record's
// packed profile is scored where it lies, with the bits the profile the item
// arrived with would give.
func (ln *liveNode) feedEntries() []FeedEntry {
	n := ln.node
	metric := n.Config().Metric
	user := n.UserProfile()
	out := make([]FeedEntry, 0, len(ln.feed))
	for i := range ln.feed {
		rec := ln.feedAt(i)
		e := FeedEntry{
			Item:       rec.item,
			Score:      metric.SimilarityPacked(user, &rec.profile),
			Cycle:      rec.cycle,
			Hops:       rec.hops,
			ViaDislike: rec.viaDislike,
		}
		if ent, ok := user.Get(rec.item.ID); ok {
			e.Rated = true
			e.Liked = ent.Score >= 0.5
			if e.Liked {
				e.Score++
			} else {
				e.Score--
			}
		}
		out = append(out, e)
	}
	slices.SortStableFunc(out, func(a, b FeedEntry) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(b.Cycle, a.Cycle), cmp.Compare(a.Item.ID, b.Item.ID))
	})
	return out
}

// Feedback records the user's like (liked=true) or dislike of an item on
// the node: the user profile entry is set to 1 or 0 at the node's current
// cycle — re-rating an already-delivered item exactly as the prototype's
// interface did — and the opinion override makes
// any future first delivery of the item agree with the expressed opinion.
// Works in every lifecycle state; an offline node's feedback lands in its
// retained profile, surviving into a rejoin.
func (r *Runner) Feedback(id news.NodeID, item news.ID, liked bool) error {
	return r.withNode(id, func(ln *liveNode, cycle int64) error {
		score := 0.0
		if liked {
			score = 1
		}
		ln.node.UserProfile().Set(item, cycle, score)
		ln.ops.over[item] = liked
		return nil
	})
}

// Publish injects an item into the gossip mesh through the given node as an
// ordinary WhatsUp publisher (Algorithm 1): the node likes its own item,
// seeds the item profile from its user profile and hands the copies to
// BEEP. Created is restamped to the node's current cycle — gossip time is
// cycle time; the item's identity (content hash) is unaffected. The node
// must be online (ErrNodeOffline) and the fleet running (ErrNotRunning).
func (r *Runner) Publish(id news.NodeID, item news.Item) error {
	return r.withNode(id, func(ln *liveNode, cycle int64) error {
		if !ln.online {
			r.mu.RLock()
			defer r.mu.RUnlock()
			if r.running {
				return ErrNodeOffline
			}
			return ErrNotRunning
		}
		item.Created = cycle
		n := ln.node
		for _, s := range n.Publish(item, cycle) {
			r.send(envelope{Kind: wireItem, From: n.ID(), To: s.To, Item: s.Msg})
		}
		return nil
	})
}

// Snapshot returns a consistent snapshot of the node's protocol state, its
// lifecycle state included, taken under the node's lock — the lock the
// churn timeline (Config.Timeline) copies views under too.
func (r *Runner) Snapshot(id news.NodeID) (NodeSnapshot, error) {
	var snap NodeSnapshot
	err := r.withNode(id, func(ln *liveNode, cycle int64) error {
		n := ln.node
		snap = NodeSnapshot{
			ID:          n.ID(),
			Cycle:       cycle,
			ProfileSize: n.UserProfile().Len(),
			RPSView:     n.RPS().View().Entries(),
			WUPView:     n.WUP().View().Entries(),
			FeedSize:    len(ln.feed),
		}
		snap.State, _ = r.State(id)
		return nil
	})
	return snap, err
}

// Members lists every registered member with its lifecycle state, in
// registration order. Safe to call at any time.
func (r *Runner) Members() []Member {
	lns, states := r.mem.Members()
	out := make([]Member, len(lns))
	for i, ln := range lns {
		out[i] = Member{ID: ln.node.ID(), State: states[i]}
	}
	return out
}

// Stats rolls up the fleet's current size and the collector's quality and
// traffic aggregates. Safe to call at any time.
func (r *Runner) Stats() FleetStats {
	s := FleetStats{Cycle: r.cycle.Load()}
	s.Members, s.Online, _ = r.mem.Counts()
	r.colMu.Lock()
	s.Precision = r.col.Precision()
	s.Recall = r.col.Recall()
	s.F1 = r.col.F1()
	s.Messages = r.col.TotalMessages()
	s.Bytes = r.col.TotalBytes()
	r.colMu.Unlock()
	return s
}
