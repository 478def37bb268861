package core

import (
	"bytes"
	"math/rand"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/profile"
)

func wireItemMsg() ItemMessage {
	p := profile.New()
	p.Set(1, 3, 1)
	p.Set(9, 4, 0.5)
	return ItemMessage{
		Item:       news.New("headline", "a short description", "https://example.org/a", 42, 7),
		Profile:    p,
		Dislikes:   2,
		Hops:       5,
		ViaDislike: true,
	}
}

func TestItemMessageWireRoundTrip(t *testing.T) {
	cases := map[string]ItemMessage{
		"full":        wireItemMsg(),
		"nil-profile": {Item: news.New("t", "", "", -1, news.NoNode)},
		"empty-item":  {Item: news.New("", "", "", 0, 0), Profile: profile.New()},
	}
	for name, m := range cases {
		enc := m.AppendWire(nil)
		got, rest, err := DecodeItemMessage(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode err=%v rest=%d", name, err, len(rest))
		}
		if got.Item != m.Item {
			t.Fatalf("%s: item mismatch:\n got %+v\nwant %+v", name, got.Item, m.Item)
		}
		if got.Dislikes != m.Dislikes || got.Hops != m.Hops || got.ViaDislike != m.ViaDislike {
			t.Fatalf("%s: counter mismatch: %+v != %+v", name, got, m)
		}
		want := m.Profile
		if want == nil {
			want = profile.New() // an absent item profile arrives empty, never nil
		}
		if got.Profile == nil || !bytes.Equal(got.Profile.AppendWire(nil), want.AppendWire(nil)) {
			t.Fatalf("%s: profile mismatch: got %v want %v", name, got.Profile, want)
		}
	}
}

// TestProfilelessItemFrameDoesNotCrashReceive is the regression for the
// 12-byte crash frame: a message encoded without an item profile decodes
// cleanly, and Node.Receive — which merges into and purges msg.Profile —
// must survive it, on the like and the dislike branch alike.
func TestProfilelessItemFrameDoesNotCrashReceive(t *testing.T) {
	it := news.New("t", "d", "l", 1, 0)
	enc := ItemMessage{Item: it}.AppendWire(nil)
	if len(enc) != 12 {
		t.Fatalf("profile-less frame is %d bytes, the reproduction was 12", len(enc))
	}
	for _, likes := range []bool{true, false} {
		msg, rest, err := DecodeItemMessage(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode err=%v rest=%d", err, len(rest))
		}
		n := NewNode(1, "", Config{FLike: 2, RPSViewSize: 4, ProfileWindow: 10},
			OpinionFunc(func(news.NodeID, news.ID) bool { return likes }), rand.New(rand.NewSource(1)))
		if d, _ := n.Receive(msg, 1); d.Duplicate || d.Liked != likes {
			t.Fatalf("likes=%v: delivery %+v", likes, d)
		}
	}
}

// TestPeekItemIDAgreesWithDecode pins the in-place id to the decoder: the
// peeked id is the decoded one. A message whose item profile is malformed
// does not decode.
func TestPeekItemIDAgreesWithDecode(t *testing.T) {
	enc := wireItemMsg().AppendWire(nil)
	m, _, err := DecodeItemMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := PeekItemID(enc); err != nil || id != m.Item.ID {
		t.Fatalf("peeked id %v err=%v, decoded %v", id, err, m.Item.ID)
	}
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] = 0xFF // the last score becomes a truncated varint
	if _, _, err := DecodeItemMessage(bad); err == nil {
		t.Fatal("the decoder accepted a malformed item profile")
	}
}

func TestItemMessageWireRecomputesID(t *testing.T) {
	// The identifier is not transmitted (II-A): receivers recompute the
	// content hash, so a sender-side ID override does not survive the wire.
	m := wireItemMsg()
	m.Item.ID = news.ID(0xDEAD)
	got, _, err := DecodeItemMessage(m.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := news.Hash(m.Item.Title, m.Item.Description, m.Item.Link); got.Item.ID != want {
		t.Fatalf("ID=%s want recomputed %s", got.Item.ID, want)
	}
}

func TestItemMessageWireDropsGroundTruthFields(t *testing.T) {
	m := wireItemMsg()
	m.Item.Topic, m.Item.Community = 3, 9
	got, _, err := DecodeItemMessage(m.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Item.Topic != 0 || got.Item.Community != 0 {
		t.Fatalf("ground-truth fields must not be gossiped: %+v", got.Item)
	}
}

func TestItemMessageWireRejectsOutOfRangeFields(t *testing.T) {
	// The protocols never produce negative counters or ids below NoNode, so
	// a frame carrying them is malformed and must not reach the receiver's
	// state or the hop/dislike histograms.
	for name, m := range map[string]ItemMessage{
		"dislikes": {Item: news.New("t", "", "", 0, 0), Dislikes: -1},
		"hops":     {Item: news.New("t", "", "", 0, 0), Hops: -5},
		"source":   {Item: news.New("t", "", "", 0, -100)}, // below NoNode
	} {
		if _, _, err := DecodeItemMessage(m.AppendWire(nil)); err == nil {
			t.Fatalf("%s: negative counter must be rejected", name)
		}
	}
}

func TestItemMessageWireTruncatedPrefixes(t *testing.T) {
	enc := wireItemMsg().AppendWire(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeItemMessage(enc[:i]); err == nil {
			t.Fatalf("prefix %d/%d must not decode", i, len(enc))
		}
	}
}

// TestWireSizeIsExactEncodedLength pins the accounting contract completed
// in this PR: ItemMessage.WireSize (and therefore news.Item.WireSize under
// it) is the exact encoded byte count, not an estimate — the simulator's
// Figure 8b bandwidth numbers and the live frames agree byte-for-byte.
func TestWireSizeIsExactEncodedLength(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	cases := map[string]ItemMessage{
		"full":        wireItemMsg(),
		"nil-profile": {Item: news.New("t", "", "", -1, news.NoNode)},
		"empty-item":  {Item: news.New("", "", "", 0, 0), Profile: profile.New()},
		"long-strings": {
			Item:     news.New(string(long), string(long[:200]), "l", 1<<40, 70000),
			Dislikes: 130, Hops: 1 << 20,
		},
	}
	for name, m := range cases {
		if got, want := m.WireSize(), len(m.AppendWire(nil)); got != want {
			t.Fatalf("%s: WireSize()=%d, encoded=%dB", name, got, want)
		}
	}
}
