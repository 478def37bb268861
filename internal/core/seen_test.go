package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// sirModel is the reference the SIR set is checked against: a map that never
// forgets, the age gate, and the now of the last window expiry.
type sirModel struct {
	window  int64
	seen    map[news.ID]int64 // every item ever admitted, by creation stamp
	expired int64             // now of the last BeginCycle or Rejoin
}

// admit applies the model's rule to one receipt and reports whether the item
// is new to the node.
func (m *sirModel) admit(it news.Item, now int64) bool {
	if _, dup := m.seen[it.ID]; dup || it.Created < now-m.window {
		return false
	}
	m.seen[it.ID] = it.Created
	return true
}

// held is what the node's set must hold: the admitted items the last expiry
// left inside the window, in id order.
func (m *sirModel) held() []seenItem {
	var out []seenItem
	//whatsup:commutative sorted by item id below
	for id, created := range m.seen {
		if m.expired == math.MinInt64 || created >= m.expired-m.window {
			out = append(out, seenItem{id, created})
		}
	}
	slices.SortFunc(out, func(a, b seenItem) int { return cmp.Compare(a.id, b.id) })
	return out
}

// TestSIRSetMatchesModel runs random Publish / Receive / BeginCycle / Crash /
// Rejoin sequences, with items created before, at and after the receiver's
// clock and a clock that only moves forward. Every step must give the
// verdict of a map that never forgets plus the age gate (so expiry loses
// nothing SIR needs), and after every step the set must hold exactly the
// admitted items created inside the window as of the last expiry.
func TestSIRSetMatchesModel(t *testing.T) {
	f := func(seed int64, windowByte uint8) bool {
		window := int64(windowByte%6) + 1
		rng := rand.New(rand.NewSource(seed))
		n := NewNode(0, "", Config{FLike: 2, RPSViewSize: 4, ProfileWindow: window},
			OpinionFunc(func(_ news.NodeID, id news.ID) bool { return id%2 == 0 }), rand.New(rand.NewSource(seed)))
		boot := []overlay.Descriptor{descFor(1, 0, 1), descFor(2, 0, 2), descFor(3, 0, 3)}
		n.SeedViews(boot)
		m := &sirModel{window: window, seen: map[news.ID]int64{}, expired: math.MinInt64}
		var items []news.Item
		now := int64(0)
		for step := 0; step < 120; step++ {
			now += rng.Int63n(3)
			it := news.Item{ID: news.ID(len(items)), Created: now + 1 - rng.Int63n(2*window+3)}
			if len(items) > 0 && rng.Intn(2) == 0 {
				it = items[rng.Intn(len(items))]
			} else {
				items = append(items, it)
			}
			switch op := rng.Intn(6); op {
			case 0:
				want := m.admit(it, now)
				before := n.Seen(it.ID)
				n.Publish(it, now)
				if got := !before && n.Seen(it.ID); got != want {
					t.Logf("window %d step %d: Publish(%+v, %d) admitted %v, model %v", window, step, it, now, got, want)
					return false
				}
			case 1, 2:
				want := !m.admit(it, now)
				msg := ItemMessage{Item: it, Profile: profile.New()}
				if d, _ := n.Receive(msg, now); d.Duplicate != want {
					t.Logf("window %d step %d: Receive(%+v, %d) Duplicate %v, model %v", window, step, it, now, d.Duplicate, want)
					return false
				}
			case 3:
				n.BeginCycle(now)
				m.expired = now
			case 4:
				n.Crash()
			case 5:
				n.Rejoin(boot, now)
				m.expired = now
			}
			if got, want := n.seen.items, m.held(); !slices.Equal(got, want) {
				t.Logf("window %d step %d now %d: set %v, model %v", window, step, now, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleItemDroppedUnwritten: an item created before the window is a
// duplicate whether the user would like it or not. It leaves the user
// profile and the item profile it arrived with unwritten, and sends nothing.
func TestStaleItemDroppedUnwritten(t *testing.T) {
	const window, now = 5, 20
	for _, op := range []Opinions{likeAll(), likeNone()} {
		n := testNode(1, op, Config{FLike: 2, ProfileWindow: window})
		n.SeedViews([]overlay.Descriptor{descFor(2, now, 1), descFor(3, now, 1)})
		n.UserProfile().Set(1, now, 1)
		userVersion := n.UserProfile().Version()
		itemProfile := profile.New()
		itemProfile.Set(1, now-window-1, 1) // stale too: the disliker's purge would rewrite it
		itemVersion := itemProfile.Version()
		msg := ItemMessage{Item: item(300, now-window-1), Profile: itemProfile, Hops: 1}
		d, sends := n.Receive(msg, now)
		if !d.Duplicate || d.Liked || sends != nil {
			t.Fatalf("stale item delivered: %+v, %d sends", d, len(sends))
		}
		if n.UserProfile().Version() != userVersion || holds(n.UserProfile(), 300) {
			t.Fatal("stale item wrote the user profile")
		}
		if itemProfile.Version() != itemVersion || !holds(itemProfile, 1) {
			t.Fatal("stale item's profile was written")
		}
		if n.Seen(300) {
			t.Fatal("stale item entered the SIR set")
		}
		if sends := n.Publish(item(301, now-window-1), now); sends != nil || n.Seen(301) {
			t.Fatal("stale publication went out")
		}
	}
}

// TestSIRSetWindowBoundary: an item created exactly one window before now is
// inside the window, both for the gate and for the expiry; one cycle later
// it is forgotten and refused.
func TestSIRSetWindowBoundary(t *testing.T) {
	const window = 4
	n := testNode(1, likeAll(), Config{FLike: 1, ProfileWindow: window})
	n.SeedViews([]overlay.Descriptor{descFor(2, 0, 1)})
	msg := ItemMessage{Item: item(400, 10), Profile: profile.New()}
	if d, _ := n.Receive(msg, 10+window); d.Duplicate {
		t.Fatal("an item created one window before now was refused")
	}
	n.BeginCycle(10 + window)
	if !n.Seen(400) {
		t.Fatal("the expiry forgot an item created one window before now")
	}
	n.BeginCycle(10 + window + 1)
	if n.Seen(400) {
		t.Fatal("the expiry kept an item created before the window")
	}
	if d, _ := n.Receive(msg, 10+window+1); !d.Duplicate {
		t.Fatal("a forgotten item infected the node again")
	}
}

// TestZeroProfileWindowNeverForgets: a substrate without a profile window
// (homogeneous gossip's) keeps every item whatever the clock says and admits
// items of any age.
func TestZeroProfileWindowNeverForgets(t *testing.T) {
	s := NewSubstrate(1, Config{RPSViewSize: 4}, rand.New(rand.NewSource(1)))
	for id := 0; id < 10; id++ {
		if !s.Infect(item(id, int64(id)), 1_000_000) {
			t.Fatalf("item %d refused without a window", id)
		}
	}
	s.BeginCycle(2_000_000)
	s.Rejoin(nil, 3_000_000)
	for id := 0; id < 10; id++ {
		if !s.Seen(news.ID(id)) {
			t.Fatalf("item %d forgotten without a window", id)
		}
		if s.Infect(item(id, int64(id)), 3_000_000) {
			t.Fatalf("item %d admitted twice", id)
		}
	}
}
