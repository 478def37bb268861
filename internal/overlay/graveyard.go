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

// Graveyard is a bounded-lifetime set of departure tombstones owned by one
// node. It is not goroutine-safe. The active set is one slice sorted by node
// id, which is also the order every gossip message piggybacks it in, so
// lookups are a binary search and the full-set piggyback is a plain append.
// The zero value is ready to use and holds no array until the first Note.
type Graveyard struct {
	active []Tombstone // one per node, sorted by node id
	// The freshest-first order, built only when a cap truncates the
	// piggyback and then cached until the set changes: a gossip round over
	// an unchanged graveyard pays one sort, not one per message.
	byFresh []Tombstone
	freshOK bool
}

// Len reports the number of active tombstones.
func (g *Graveyard) Len() int { return len(g.active) }

// find returns the position of the node's tombstone in active, or the
// position it would be inserted at, and whether it is present.
func (g *Graveyard) find(id news.NodeID) (int, bool) {
	lo, hi := 0, len(g.active)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); g.active[m].Node < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(g.active) && g.active[lo].Node == id
}

// Contains reports whether the node has an active tombstone. It costs one
// length check when no departures are in flight, so merge paths can call it
// per descriptor.
func (g *Graveyard) Contains(id news.NodeID) bool {
	_, ok := g.find(id)
	return ok
}

// Note records a departure, keeping the freshest stamp per node, and reports
// whether the tombstone was new information (new node or fresher stamp) —
// the signal to keep forwarding it.
func (g *Graveyard) Note(t Tombstone) bool {
	i, ok := g.find(t.Node)
	switch {
	case !ok:
		g.active = slices.Insert(g.active, i, t)
	case g.active[i].Stamp >= t.Stamp:
		return false
	default:
		g.active[i].Stamp = t.Stamp
	}
	g.freshOK = false
	return true
}

// ExpireOlderThan drops every tombstone whose stamp is strictly older than
// minStamp — the same strictly-older-than boundary View.EvictOlderThan uses —
// and reports how many were dropped.
func (g *Graveyard) ExpireOlderThan(minStamp int64) int {
	before := len(g.active)
	g.active = slices.DeleteFunc(g.active, func(t Tombstone) bool { return t.Stamp < minStamp })
	dropped := before - len(g.active)
	if dropped > 0 {
		g.freshOK = false
	}
	return dropped
}

// AppendActive appends the active tombstones to dst sorted by node id, so
// callers forwarding them on gossip emit a deterministic order.
func (g *Graveyard) AppendActive(dst []Tombstone) []Tombstone {
	return append(dst, g.active...)
}

// AppendFreshest appends at most max active tombstones to dst. While the
// whole set fits (max <= 0, or max >= Len) this is AppendActive — the full
// set in node-id order, so a node under its cap piggybacks identically to an
// uncapped one. Only when the cap truncates does order pick what survives:
// the freshest stamps first (ties broken by node id), because their stale
// descriptors are the ones most likely still circulating, while the oldest
// are close to TTL-flushed anyway.
func (g *Graveyard) AppendFreshest(dst []Tombstone, max int) []Tombstone {
	if max <= 0 || max >= len(g.active) {
		return g.AppendActive(dst)
	}
	if !g.freshOK {
		g.byFresh = append(g.byFresh[:0], g.active...)
		slices.SortFunc(g.byFresh, func(a, b Tombstone) int {
			if c := cmp.Compare(b.Stamp, a.Stamp); c != 0 {
				return c
			}
			return cmp.Compare(a.Node, b.Node)
		})
		g.freshOK = true
	}
	return append(dst, g.byFresh[:max]...)
}

// Clear drops every tombstone (crash semantics: tombstones are volatile
// state).
func (g *Graveyard) Clear() {
	g.active, g.byFresh = g.active[:0], g.byFresh[:0]
	g.freshOK = false
}
