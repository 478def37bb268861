// Graveyard: the departure-notice tombstone set of the churn protocol.
//
// A graceful leaver piggybacks a departure notice on its final gossip
// exchanges. Receivers evict the leaver immediately instead of waiting out
// the DescriptorTTL horizon, remember the departure as a tombstone, forward
// it on their own gossip for one horizon so the notice floods the leaver's
// neighbourhood, and filter the leaver's stale descriptors out of every
// merge until the tombstone expires. The tombstone set is deliberately tiny
// and short-lived: it only has to outlive the stale descriptors still in
// flight, which the eviction horizon already bounds.
package overlay

import (
	"cmp"
	"slices"

	"whatsup/internal/news"
	"whatsup/internal/wire"
)

// Tombstone records one graceful departure: the node that left and the cycle
// it announced the departure at.
type Tombstone struct {
	Node  news.NodeID
	Stamp int64
}

// WireSize returns the exact number of bytes AppendTombstone produces.
func (t Tombstone) WireSize() int {
	return wire.IntLen(int64(t.Node)) + wire.IntLen(t.Stamp)
}

// Applies reports whether a node self, whose tombstones expire below
// minStamp, takes the notice at all: one about itself or already expired is
// ignored.
func (t Tombstone) Applies(self news.NodeID, minStamp int64) bool {
	return t.Node != self && t.Stamp >= minStamp
}

// Graveyard is a bounded-lifetime set of departure tombstones owned by one
// node. It is not goroutine-safe. The active set is one exact-size slice
// sorted by node id, which is also the order every gossip message piggybacks
// it in, so lookups are a binary search and the piggyback is the set itself.
//
// An array the graveyard has published is never written again: Note,
// Absorb, ExpireOlderThan and Clear build a new exact-size array (or nil)
// whenever the set changes, so the slices Active and Freshest hand out, and
// the lists Absorb adopts from other nodes, can be shared read-only by any
// number of holders and goroutines. The zero value is ready to use and holds
// no array until the first Note.
type Graveyard struct {
	active []Tombstone // one per node, sorted by node id; nil when empty
	// The freshest-first order, built only when a cap truncates the
	// piggyback and then kept until the set changes: a gossip round over an
	// unchanged graveyard pays one sort, not one per message. nil until
	// built.
	byFresh []Tombstone
}

// Len reports the number of active tombstones.
func (g *Graveyard) Len() int { return len(g.active) }

// find returns the position of the node's tombstone in s (sorted by node
// id), or the position it would be inserted at, and whether it is present.
func find(s []Tombstone, id news.NodeID) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m].Node < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s) && s[lo].Node == id
}

// Contains reports whether the node has an active tombstone. It costs one
// length check when no departures are in flight, so merge paths can call it
// per descriptor.
func (g *Graveyard) Contains(id news.NodeID) bool {
	_, ok := find(g.active, id)
	return ok
}

// set replaces the active set with a new array and forgets the
// freshest-first order built from the old one.
func (g *Graveyard) set(active []Tombstone) {
	g.active, g.byFresh = active, nil
}

// withRoom returns a private copy of the active set with room for n more
// tombstones: the copy-on-write step of every change that keeps entries.
//
//whatsup:hotpath
func (g *Graveyard) withRoom(n int) []Tombstone {
	next := make([]Tombstone, len(g.active), len(g.active)+n) //whatsup:alloc copy-on-write: the set changes and its published array is never written
	copy(next, g.active)
	return next
}

// upsert records t in s, a sorted set no one else has seen yet: a new node
// is inserted in order (s must have the capacity), a known one keeps the
// fresher stamp.
func upsert(s []Tombstone, t Tombstone) []Tombstone {
	i, ok := find(s, t.Node)
	if ok {
		s[i].Stamp = max(s[i].Stamp, t.Stamp)
		return s
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = t
	return s
}

// Note records a departure, keeping the freshest stamp per node, and reports
// whether the tombstone was new information (new node or fresher stamp) —
// the signal to keep forwarding it. New information costs one exact-size
// copy of the set.
func (g *Graveyard) Note(t Tombstone) bool {
	i, ok := find(g.active, t.Node)
	if ok && g.active[i].Stamp >= t.Stamp {
		return false
	}
	room := 1
	if ok {
		room = 0
	}
	g.set(upsert(g.withRoom(room), t))
	return true
}

// Absorb notes a whole piggybacked list in one pass, skipping the tombstones
// that do not apply to node self at minStamp (Tombstone.Applies), and
// reports whether the set changed. The result is the set a Note of each
// applicable tombstone in list order would leave, whatever the list's order.
// A list that changes nothing costs nothing. When the result equals the list
// itself — it is sorted by node id, holds every tombstone the set holds, none
// of them staler — the graveyard adopts the list's array instead of copying
// it: the list must never be written again. Otherwise the set is rebuilt in
// one new array, exact-size unless the list names a node twice.
//
//whatsup:hotpath
func (g *Graveyard) Absorb(list []Tombstone, self news.NodeID, minStamp int64) bool {
	added, changed, adoptable := 0, false, true
	for k, t := range list {
		if !t.Applies(self, minStamp) {
			adoptable = false
			continue
		}
		if k > 0 && list[k-1].Node >= t.Node {
			adoptable = false
		}
		i, ok := find(g.active, t.Node)
		switch {
		case !ok:
			added++
			changed = true
		case g.active[i].Stamp < t.Stamp:
			changed = true
		case g.active[i].Stamp > t.Stamp:
			adoptable = false
		}
	}
	if !changed {
		return false
	}
	if adoptable && len(g.active)+added == len(list) {
		g.set(slices.Clip(list))
		return true
	}
	next := g.withRoom(added)
	for _, t := range list {
		if t.Applies(self, minStamp) {
			next = upsert(next, t)
		}
	}
	g.set(slices.Clip(next))
	return true
}

// ExpireOlderThan drops every tombstone whose stamp is strictly older than
// minStamp — the same strictly-older-than boundary View.EvictOlderThan uses —
// and reports how many were dropped.
func (g *Graveyard) ExpireOlderThan(minStamp int64) int {
	dropped := 0
	for _, t := range g.active {
		if t.Stamp < minStamp {
			dropped++
		}
	}
	if dropped == 0 {
		return 0
	}
	var next []Tombstone
	if dropped < len(g.active) {
		next = make([]Tombstone, 0, len(g.active)-dropped)
		for _, t := range g.active {
			if t.Stamp >= minStamp {
				next = append(next, t)
			}
		}
	}
	g.set(next)
	return dropped
}

// Active returns the active tombstones sorted by node id, so callers
// forwarding them on gossip emit a deterministic order. The slice is the
// graveyard's own array, read-only: it is never written, by the graveyard
// or by anyone else. nil when the set is empty.
func (g *Graveyard) Active() []Tombstone { return slices.Clip(g.active) }

// Freshest returns at most max active tombstones, read-only like Active.
// While the whole set fits (max <= 0, or max >= Len) this is Active — the
// full set in node-id order, so a node under its cap piggybacks identically
// to an uncapped one. Only when the cap truncates does order pick what
// survives: the freshest stamps first (ties broken by node id), because
// their stale descriptors are the ones most likely still circulating, while
// the oldest are close to TTL-flushed anyway.
func (g *Graveyard) Freshest(max int) []Tombstone {
	if max <= 0 || max >= len(g.active) {
		return g.Active()
	}
	if g.byFresh == nil {
		byFresh := slices.Clone(g.active)
		slices.SortFunc(byFresh, func(a, b Tombstone) int {
			if c := cmp.Compare(b.Stamp, a.Stamp); c != 0 {
				return c
			}
			return cmp.Compare(a.Node, b.Node)
		})
		g.byFresh = byFresh
	}
	return g.byFresh[:max:max]
}

// Clear drops every tombstone (crash semantics: tombstones are volatile
// state).
func (g *Graveyard) Clear() { g.set(nil) }
