package core

import (
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
)

// TestNoteDepartureEvictsAndFilters pins the node half of the departure
// notice protocol: a tombstone evicts the leaver from both views immediately
// and filters its stale descriptors out of later merges until it expires.
func TestNoteDepartureEvictsAndFilters(t *testing.T) {
	n := testNode(1, likeAll(), Config{FLike: 3, DescriptorTTL: 5})
	leaver := descFor(7, 10)
	other := descFor(8, 10)
	n.RPS().Seed([]overlay.Descriptor{leaver, other})
	n.WUP().Seed([]overlay.Descriptor{leaver, other}, n.UserProfile())
	if !n.RPS().View().Contains(7) || !n.WUP().View().Contains(7) {
		t.Fatal("setup: leaver descriptor must be in both views")
	}

	n.NoteDeparture(overlay.Tombstone{Node: 7, Stamp: 10}, 10)
	if n.RPS().View().Contains(7) || n.WUP().View().Contains(7) {
		t.Fatal("NoteDeparture must evict the leaver from both views")
	}
	if n.RPS().View().Contains(8) == false {
		t.Fatal("NoteDeparture must only evict the tombstoned node")
	}

	// A stale descriptor of the leaver still in flight must not re-enter.
	n.RPS().Seed([]overlay.Descriptor{leaver})
	n.WUP().Seed([]overlay.Descriptor{leaver}, n.UserProfile())
	if n.RPS().View().Contains(7) || n.WUP().View().Contains(7) {
		t.Fatal("active tombstone must filter the leaver out of merges")
	}

	if tombs := n.AppendTombstones(nil); len(tombs) != 1 || tombs[0].Node != 7 {
		t.Fatalf("AppendTombstones = %v, want the leaver's tombstone", tombs)
	}
}

// TestNoteDepartureIgnoresSelfAndExpired: a node never tombstones itself,
// and a notice older than the departure horizon is dropped on arrival.
func TestNoteDepartureIgnoresSelfAndExpired(t *testing.T) {
	n := testNode(1, likeAll(), Config{FLike: 3, DescriptorTTL: 5})
	n.NoteDeparture(overlay.Tombstone{Node: 1, Stamp: 100}, 100)
	if len(n.AppendTombstones(nil)) != 0 {
		t.Fatal("a node must ignore a tombstone bearing its own id")
	}
	n.NoteDeparture(overlay.Tombstone{Node: 9, Stamp: 4}, 10) // 4 < 10-5
	if len(n.AppendTombstones(nil)) != 0 {
		t.Fatal("a tombstone older than the horizon must be dropped on arrival")
	}
	n.NoteDeparture(overlay.Tombstone{Node: 9, Stamp: 5}, 10) // boundary: exactly now-horizon
	if len(n.AppendTombstones(nil)) != 1 {
		t.Fatal("a tombstone stamped exactly now-horizon must be accepted")
	}
}

// TestTombstoneExpiryOnBeginCycle pins the one-horizon lifetime: BeginCycle
// expires tombstones with the same strictly-older-than boundary as view
// eviction, and a crash wipes them with the rest of the volatile state.
func TestTombstoneExpiryOnBeginCycle(t *testing.T) {
	const ttl = 5
	n := testNode(1, likeAll(), Config{FLike: 3, DescriptorTTL: ttl})
	n.NoteDeparture(overlay.Tombstone{Node: 7, Stamp: 10}, 10)

	n.BeginCycle(10 + ttl) // 10 == (10+ttl)-ttl: boundary stamp survives
	if len(n.AppendTombstones(nil)) != 1 {
		t.Fatal("tombstone must survive exactly one horizon")
	}
	n.BeginCycle(10 + ttl + 1)
	if len(n.AppendTombstones(nil)) != 0 {
		t.Fatal("tombstone must expire one cycle past the horizon")
	}

	// Without a DescriptorTTL the horizon falls back to the profile window.
	win := testNode(2, likeAll(), Config{FLike: 3, ProfileWindow: 4})
	win.NoteDeparture(overlay.Tombstone{Node: 7, Stamp: 10}, 10)
	win.BeginCycle(15) // 10 < 15-4
	if len(win.AppendTombstones(nil)) != 0 {
		t.Fatal("without DescriptorTTL the tombstone horizon must be the profile window")
	}

	crashed := testNode(3, likeAll(), Config{FLike: 3, DescriptorTTL: ttl})
	crashed.NoteDeparture(overlay.Tombstone{Node: 7, Stamp: 10}, 10)
	crashed.Crash()
	if len(crashed.AppendTombstones(nil)) != 0 {
		t.Fatal("Crash must clear the tombstone set with the volatile state")
	}
}

// TestEvictionBoundaryAcrossLayers is the shared TTL-boundary regression for
// every EvictOlderThan caller (rps, cluster, and BeginCycle's wiring of
// both): a descriptor stamped exactly at now-TTL survives, one cycle older
// is evicted. The live runtime's ingestion-time eviction reuses the same
// EvictOlderThan, so this pins all call sites to one semantics.
func TestEvictionBoundaryAcrossLayers(t *testing.T) {
	const ttl, now = 7, 20
	boundary := descFor(5, now-ttl)
	stale := descFor(6, now-ttl-1)

	n := testNode(1, likeAll(), Config{FLike: 3, DescriptorTTL: ttl})
	n.RPS().Seed([]overlay.Descriptor{boundary, stale})
	n.WUP().Seed([]overlay.Descriptor{boundary, stale}, n.UserProfile())
	n.BeginCycle(now)
	for layer, v := range map[string]*overlay.View{"rps": n.RPS().View(), "wup": n.WUP().View()} {
		if !v.Contains(5) {
			t.Fatalf("%s: descriptor stamped exactly now-TTL must survive", layer)
		}
		if v.Contains(6) {
			t.Fatalf("%s: descriptor one cycle older than the horizon must be evicted", layer)
		}
	}

	direct := overlay.NewView(4)
	direct.InsertAll([]overlay.Descriptor{boundary, stale}, news.NodeID(99))
	if evicted := direct.EvictOlderThan(now - ttl); evicted != 1 {
		t.Fatalf("View.EvictOlderThan evicted %d, want 1 (strictly older than)", evicted)
	}
}

// TestnoticePiggybackCap: by default every active tombstone rides outgoing
// gossip freshest-first; with a piggyback cap only that many of the
// freshest do.
func TestNoticePiggybackCap(t *testing.T) {
	notes := []overlay.Tombstone{
		{Node: 7, Stamp: 4},
		{Node: 8, Stamp: 9},
		{Node: 9, Stamp: 6},
	}

	full := testNode(1, likeAll(), Config{FLike: 3, DescriptorTTL: 20})
	for _, tb := range notes {
		full.NoteDeparture(tb, 10)
	}
	got := full.AppendTombstones(nil)
	byNode := []overlay.Tombstone{{Node: 7, Stamp: 4}, {Node: 8, Stamp: 9}, {Node: 9, Stamp: 6}}
	if len(got) != len(byNode) {
		t.Fatalf("uncapped piggyback carried %d tombstones, want all %d", len(got), len(byNode))
	}
	for i := range byNode {
		if got[i] != byNode[i] {
			t.Fatalf("piggyback order %v, want the full set in node-id order %v", got, byNode)
		}
	}

	capped := testNode(1, likeAll(), Config{FLike: 3, DescriptorTTL: 20, noticePiggybackCap: 2})
	for _, tb := range notes {
		capped.NoteDeparture(tb, 10)
	}
	got = capped.AppendTombstones(nil)
	byFresh := []overlay.Tombstone{{Node: 8, Stamp: 9}, {Node: 9, Stamp: 6}}
	if len(got) != 2 || got[0] != byFresh[0] || got[1] != byFresh[1] {
		t.Fatalf("capped piggyback = %v, want the 2 freshest %v", got, byFresh)
	}
}
