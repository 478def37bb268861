package overlay

import (
	"errors"
	"slices"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/wire"
)

func TestGraveyardNoteFresherWins(t *testing.T) {
	var g Graveyard
	if g.Len() != 0 || g.Contains(3) {
		t.Fatal("zero-value graveyard must be empty")
	}
	if !g.Note(Tombstone{Node: 3, Stamp: 10}) {
		t.Fatal("first note must be new information")
	}
	if g.Note(Tombstone{Node: 3, Stamp: 10}) || g.Note(Tombstone{Node: 3, Stamp: 7}) {
		t.Fatal("same or older stamp must not be new information")
	}
	if !g.Note(Tombstone{Node: 3, Stamp: 12}) {
		t.Fatal("fresher stamp must be new information")
	}
	if !g.Contains(3) || g.Len() != 1 {
		t.Fatalf("graveyard state after notes: len=%d contains=%v", g.Len(), g.Contains(3))
	}
	if got := g.Active(); len(got) != 1 || got[0] != (Tombstone{Node: 3, Stamp: 12}) {
		t.Fatalf("Active = %v, want the freshest stamp", got)
	}
}

// TestGraveyardExpireBoundary pins the strictly-older-than boundary shared
// with View.EvictOlderThan: a tombstone stamped exactly at minStamp survives.
func TestGraveyardExpireBoundary(t *testing.T) {
	var g Graveyard
	g.Note(Tombstone{Node: 1, Stamp: 9})
	g.Note(Tombstone{Node: 2, Stamp: 10})
	g.Note(Tombstone{Node: 3, Stamp: 11})
	if dropped := g.ExpireOlderThan(10); dropped != 1 {
		t.Fatalf("ExpireOlderThan(10) dropped %d, want 1 (only stamp 9)", dropped)
	}
	if g.Contains(1) || !g.Contains(2) || !g.Contains(3) {
		t.Fatal("stamp == minStamp must survive, stamp < minStamp must not")
	}
}

// TestGraveyardActiveSorted pins the piggyback order (node id) and that
// Active hands out the set's own exact-size array, read-only: nothing can be
// appended into it, and a change builds a new array instead of writing it.
func TestGraveyardActiveSorted(t *testing.T) {
	var g Graveyard
	if g.Active() != nil {
		t.Fatal("an empty graveyard must piggyback nil")
	}
	for _, id := range []news.NodeID{9, 2, 7, 4} {
		g.Note(Tombstone{Node: id, Stamp: int64(id)})
	}
	got := g.Active()
	if len(got) != 4 || cap(got) != len(got) {
		t.Fatalf("Active must be the exact-size set: len %d cap %d", len(got), cap(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Node >= got[i].Node {
			t.Fatalf("active tombstones not sorted by node id: %v", got)
		}
	}
	held := slices.Clone(got)
	g.Note(Tombstone{Node: 7, Stamp: 20})
	g.Note(Tombstone{Node: 5, Stamp: 20})
	g.ExpireOlderThan(5)
	if !slices.Equal(got, held) {
		t.Fatalf("a published piggyback was written in place: %v, was %v", got, held)
	}
	if &g.Active()[0] == &got[0] {
		t.Fatal("a changed set must live in a new array")
	}
	g.Clear()
	if g.Len() != 0 || g.Active() != nil {
		t.Fatal("Clear must drop all tombstones")
	}
}

// TestGraveyardFreshest pins the capped piggyback path: a cap that does not
// truncate degrades to the full set in Active's node-id order, a truncating
// cap keeps the freshest stamps (node-id tiebreak), and the cached order is
// rebuilt, never rewritten, after Note/Expire/Clear.
func TestGraveyardFreshest(t *testing.T) {
	var g Graveyard
	if got := g.Freshest(4); len(got) != 0 {
		t.Fatalf("empty graveyard piggybacked %v", got)
	}
	g.Note(Tombstone{Node: 4, Stamp: 7})
	g.Note(Tombstone{Node: 1, Stamp: 9})
	g.Note(Tombstone{Node: 6, Stamp: 9})
	g.Note(Tombstone{Node: 2, Stamp: 3})

	// Uncapped (and any cap >= Len): identical to Active.
	byNode := []Tombstone{{Node: 1, Stamp: 9}, {Node: 2, Stamp: 3}, {Node: 4, Stamp: 7}, {Node: 6, Stamp: 9}}
	if got := g.Freshest(0); !slices.Equal(got, byNode) || &got[0] != &g.Active()[0] {
		t.Fatalf("uncapped: got %v, want the active set itself %v", got, byNode)
	}
	if wide := g.Freshest(10); !slices.Equal(wide, byNode) {
		t.Fatalf("non-truncating cap must match the uncapped order: %v", wide)
	}
	// A truncating cap keeps the freshest, ties broken by node id.
	byFresh := []Tombstone{{Node: 1, Stamp: 9}, {Node: 6, Stamp: 9}, {Node: 4, Stamp: 7}}
	capped := g.Freshest(3)
	if !slices.Equal(capped, byFresh) || cap(capped) != 3 {
		t.Fatalf("cap of 3: got %v (cap %d), want %v", capped, cap(capped), byFresh)
	}

	// A fresher note must displace the cached heads, in a new array.
	g.Note(Tombstone{Node: 2, Stamp: 11})
	if head := g.Freshest(1); len(head) != 1 || head[0] != (Tombstone{Node: 2, Stamp: 11}) {
		t.Fatalf("fresh order not rebuilt after Note: head %v", head)
	}
	if !slices.Equal(capped, byFresh) {
		t.Fatalf("a published capped piggyback was written in place: %v", capped)
	}
	if full := g.Freshest(0); len(full) != 4 || full[1] != (Tombstone{Node: 2, Stamp: 11}) {
		t.Fatalf("node-id order not updated by Note: %v", full)
	}
	// Expiry must drop from the cached order too.
	g.ExpireOlderThan(9)
	for _, tb := range g.Freshest(0) {
		if tb.Stamp < 9 {
			t.Fatalf("expired tombstone still piggybacked: %v", tb)
		}
	}
	g.Clear()
	if got := g.Freshest(0); len(got) != 0 {
		t.Fatalf("cleared graveyard piggybacked %v", got)
	}
}

// TestGraveyardAbsorbAdopts pins the three outcomes of a whole-list absorb:
// a list that adds nothing leaves the set's array as it is, a list that is
// the merged result becomes the set (its array adopted, not copied), and any
// other list is merged into a new array with the list left untouched.
func TestGraveyardAbsorbAdopts(t *testing.T) {
	var g Graveyard
	g.Note(Tombstone{Node: 2, Stamp: 5})
	g.Note(Tombstone{Node: 6, Stamp: 5})
	before := g.Active()

	g.Absorb([]Tombstone{{Node: 2, Stamp: 4}, {Node: 6, Stamp: 5}}, 0, 0)
	if &g.Active()[0] != &before[0] {
		t.Fatal("a list that adds nothing must leave the set's array alone")
	}

	sender := []Tombstone{{Node: 2, Stamp: 5}, {Node: 4, Stamp: 6}, {Node: 6, Stamp: 7}}
	g.Absorb(sender, 0, 0)
	if got := g.Active(); !slices.Equal(got, sender) || &got[0] != &sender[0] {
		t.Fatalf("the merged result equals the list: want it adopted, got %v", got)
	}

	other := []Tombstone{{Node: 9, Stamp: 8}, {Node: 1, Stamp: 8}} // unsorted: capped, freshest first
	held := slices.Clone(other)
	g.Absorb(other, 0, 0)
	want := []Tombstone{{Node: 1, Stamp: 8}, {Node: 2, Stamp: 5}, {Node: 4, Stamp: 6}, {Node: 6, Stamp: 7}, {Node: 9, Stamp: 8}}
	if got := g.Active(); !slices.Equal(got, want) || cap(got) != len(want) {
		t.Fatalf("merge: got %v (cap %d), want %v", got, cap(got), want)
	}
	if !slices.Equal(other, held) || !slices.Equal(sender, []Tombstone{{Node: 2, Stamp: 5}, {Node: 4, Stamp: 6}, {Node: 6, Stamp: 7}}) {
		t.Fatal("an absorbed or adopted list was written")
	}

	// A list carrying self or an expired tombstone is filtered, never adopted.
	var h Graveyard
	h.Absorb([]Tombstone{{Node: 3, Stamp: 1}, {Node: 5, Stamp: 9}, {Node: 7, Stamp: 9}}, 7, 2)
	if got := h.Active(); !slices.Equal(got, []Tombstone{{Node: 5, Stamp: 9}}) {
		t.Fatalf("self and expired tombstones must be filtered out: %v", got)
	}
}

func TestTombstoneWireRoundTrip(t *testing.T) {
	cases := [][]Tombstone{
		nil,
		{{Node: 0, Stamp: 0}},
		{{Node: 5, Stamp: 42}, {Node: 70000, Stamp: -3}, {Node: 1, Stamp: 1 << 40}},
	}
	for _, tombs := range cases {
		buf := AppendTombstones(nil, tombs)
		if want := wire.UintLen(uint64(len(tombs))) + TombstonesWireSize(tombs); len(buf) != want {
			t.Fatalf("encoded %d bytes, want count prefix + TombstonesWireSize = %d", len(buf), want)
		}
		got, rest, err := AppendDecodeTombstones(nil, append(buf, 0xAA))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 1 || rest[0] != 0xAA {
			t.Fatalf("decode consumed wrong length, rest=%v", rest)
		}
		if len(got) != len(tombs) {
			t.Fatalf("round trip length %d, want %d", len(got), len(tombs))
		}
		for i := range tombs {
			if got[i] != tombs[i] {
				t.Fatalf("round trip[%d] = %v, want %v", i, got[i], tombs[i])
			}
		}
	}
}

func TestDecodeTombstonesRejectsTruncation(t *testing.T) {
	buf := AppendTombstones(nil, []Tombstone{{Node: 5, Stamp: 42}, {Node: 9, Stamp: 50}})
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := AppendDecodeTombstones(nil, buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(buf))
		}
	}
	// A count prefix promising more tombstones than the payload can hold must
	// fail fast rather than over-allocate.
	huge := wire.AppendUint(nil, 1<<40)
	if _, _, err := AppendDecodeTombstones(nil, huge); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("oversized count: err=%v, want ErrTruncated", err)
	}
}

// TestInsertAllLiveFiltersTombstoned pins the merge filter: descriptors of
// tombstoned nodes (and the excluded self) never enter the view, while a nil
// or empty graveyard degrades to the plain InsertAll path.
func TestInsertAllLiveFiltersTombstoned(t *testing.T) {
	batch := []Descriptor{
		{Node: 1, Stamp: 5},
		{Node: 2, Stamp: 5},
		{Node: 3, Stamp: 5},
	}
	var g Graveyard
	g.Note(Tombstone{Node: 2, Stamp: 6})

	v := NewView(8)
	v.InsertAllLive(batch, 3, &g)
	if v.Contains(2) {
		t.Fatal("tombstoned node must be filtered out of the merge")
	}
	if v.Contains(3) {
		t.Fatal("excluded self must be filtered out of the merge")
	}
	if !v.Contains(1) {
		t.Fatal("live node must be inserted")
	}

	plain := NewView(8)
	plain.InsertAllLive(batch, 0, nil)
	empty := NewView(8)
	empty.InsertAllLive(batch, 0, &Graveyard{})
	if plain.Len() != 3 || empty.Len() != 3 {
		t.Fatalf("nil/empty graveyard must not filter: len %d, %d (want 3)", plain.Len(), empty.Len())
	}

	src := NewView(8)
	src.InsertAll(batch, 0)
	fromLive := NewView(8)
	fromLive.InsertAllFromLive(src, 1, &g)
	if fromLive.Contains(2) || fromLive.Contains(1) || !fromLive.Contains(3) {
		t.Fatal("InsertAllFromLive must apply the same tombstone + exclude filter")
	}
}
