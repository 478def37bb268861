package live

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// frameFleet builds a never-started three-node fleet on a tapNet whose node
// 0 likes the items whose id is even; the test is the scheduler. The views
// are small (RPS 6, WUP 4), so a script's merges go through the random trims.
func frameFleet(t *testing.T) (*liveNode, *tapNet) {
	return frameFleetSized(t, 6, 0)
}

func frameFleetSized(t *testing.T, rpsViewSize, wupViewSize int) (*liveNode, *tapNet) {
	return frameFleetScored(t, rpsViewSize, wupViewSize, nil)
}

// frameFleetScored is frameFleetSized with the nodes' similarity metric (nil:
// the default).
func frameFleetScored(t *testing.T, rpsViewSize, wupViewSize int, metric profile.Metric) (*liveNode, *tapNet) {
	t.Helper()
	tap := newTapNet(5)
	t.Cleanup(tap.Close)
	r := NewRunner(Config{
		Seed: 5,
		NodeConfig: core.Config{FLike: 2, RPSViewSize: rpsViewSize, WUPViewSize: wupViewSize,
			ProfileWindow: 20, DescriptorTTL: 10, Metric: metric},
		DepartureNotices: true,
		RefillWatermark:  0.5,
		FeedCapacity:     2, // smaller than the script's deliveries: the ring wraps
		Opinions:         core.OpinionFunc(func(_ news.NodeID, id news.ID) bool { return id%2 == 0 }),
	}, dataset.Blank(3, 1), tap)
	return member(r, 0), tap
}

// pooled copies a payload into a pooled buffer, as a transport would.
func pooled(payload []byte) *[]byte {
	buf := getBuf()
	*buf = append(*buf, payload...)
	return buf
}

// scriptItem is item i of a script, sent by from. Its id is the FNV-1a hash
// of its content, whose low bit is the parity of the content's odd bytes, so
// i appears in the content an odd number of times: ids of both parities
// occur, and the fleet's nodes, which like even ids, dislike some items.
func scriptItem(i int, from news.NodeID) envelope {
	p := profile.New()
	p.Set(news.ID(100+i), 1, 1)
	p.Set(news.ID(200+i), 1, 0.5)
	it := news.New(fmt.Sprintf("title-%d", i), fmt.Sprint("a description ", i), "https://example.org/"+fmt.Sprint(i), 1, from)
	return envelope{Kind: wireItem, From: from, To: 0, Item: core.ItemMessage{Item: it, Profile: p, Hops: 1 + i%3}}
}

// frameScript is a receive sequence for node 0: items and every gossip kind,
// with repeats of both, a repeat whose tail is corrupt (a duplicate by
// content — dropped either way), and two frames that do not decode.
func frameScript() [][]byte {
	descs := []overlay.Descriptor{phantom(1, 1, 100), phantom(2, 1, 101, 102), phantom(9, 1, 103)}
	envs := []envelope{
		scriptItem(0, 1),
		{Kind: wireRPSRequest, From: 1, To: 0, Descs: descs},
		scriptItem(1, 2),
		scriptItem(0, 2), // repeat, by another path
		{Kind: wireWUPRequest, From: 2, To: 0, Descs: descs[:2], Tombs: []overlay.Tombstone{{Node: 9, Stamp: 1}}},
		scriptItem(2, 1),
		scriptItem(1, 1), // repeat
		{Kind: wireRPSReply, From: 1, To: 0, Descs: descs[1:]},
		{Kind: wireRPSRequest, From: 1, To: 0, Descs: descs}, // gossip repeats are not duplicates: answered again
		scriptItem(3, 2),
		{Kind: wireDeparture, From: 2, To: 0, Tombs: []overlay.Tombstone{{Node: 2, Stamp: 1}}},
		{Kind: wireRefillRequest, From: 1, To: 0, Descs: descs[:1]},
		{Kind: wireRefillReply, From: 1, To: 0, Descs: descs},
		scriptItem(3, 1), // repeat
		scriptItem(4, 1),
	}
	var script [][]byte
	for _, env := range envs {
		script = append(script, appendEnvelope(nil, env))
	}
	seenCorruptTail := appendEnvelope(nil, scriptItem(2, 2))
	seenCorruptTail[len(seenCorruptTail)-1] = 0xFF
	freshCorruptTail := appendEnvelope(nil, scriptItem(7, 2))
	freshCorruptTail[len(freshCorruptTail)-1] = 0xFF
	return append(script, seenCorruptTail, freshCorruptTail, []byte{99, 0, 0})
}

// nodeState renders everything a received frame can change on a node.
func nodeState(ln *liveNode, script [][]byte) string {
	var b strings.Builder
	b.WriteString(overlayState(ln.node))
	fmt.Fprintf(&b, "user: %s\nseen:", wireHex(snapshotOf(ln.node.UserProfile())))
	for _, payload := range script {
		if kind, _, _, body, err := envelopeHeader(payload); err == nil && kind == wireItem {
			id, _ := core.PeekItemID(body)
			fmt.Fprintf(&b, " %v", ln.node.Seen(id))
		}
	}
	b.WriteString("\n")
	b.WriteString(feedState(ln))
	return b.String()
}

// feedState renders a node's feed ring oldest first, each record's profile
// as its packed bytes.
func feedState(ln *liveNode) string {
	var b strings.Builder
	b.WriteString("feed:")
	for i := range ln.feed {
		rec := ln.feedAt(i)
		fmt.Fprintf(&b, " {%+v %x c%d h%d %v}", rec.item, rec.profile.AppendWire(nil), rec.cycle, rec.hops, rec.viaDislike)
	}
	return b.String()
}

// heldScript is a receive sequence for node 0 of a fleet whose views are
// roomy enough (RPS 12, WUP 16) that nothing is trimmed and the clustering
// view stays under the refill watermark: every step's outcome is decided by
// the merge rule alone. It carries, on each layer, descriptors of the node
// itself, of a tombstoned node, and of nodes held at a fresher, the same and
// a staler stamp; the same (node, stamp) under two contents; and a refill
// reply whose descriptors only one of the two views holds. kept[i] is what
// step i's frame must decode to — exactly the descriptors a merge takes.
func heldScript() (script [][]byte, kept []string) {
	steps := []struct {
		env  envelope
		kept string
	}{
		{envelope{Kind: wireWUPRequest, From: 2, Tombs: []overlay.Tombstone{{Node: 9, Stamp: 1}}}, ""},
		{envelope{Kind: wireRPSRequest, From: 1, Descs: []overlay.Descriptor{
			phantom(20, 5, 300), phantom(21, 5, 301), phantom(25, 5, 305), phantom(26, 5, 306)}},
			"20@5 21@5 25@5 26@5"},
		// 21@5 is the snapshot the RPS view holds; 25@5 is not, whatever its key says.
		{envelope{Kind: wireWUPRequest, From: 1, Descs: []overlay.Descriptor{
			phantom(20, 3, 300), phantom(22, 5, 302), phantom(21, 5, 301), phantom(25, 5, 999), phantom(27, 5, 307)}},
			"20@3 22@5 21@5 25@5 27@5"},
		// RPS holds 20@5 and no 22; the clustering view's 20@3 and 22@5 must not be asked.
		{envelope{Kind: wireRPSReply, From: 1, Descs: []overlay.Descriptor{
			phantom(0, 9, 1), phantom(9, 9, 2), phantom(20, 4, 300), phantom(20, 5, 300), phantom(20, 6, 300), phantom(22, 5, 302)}},
			"20@6 22@5"},
		// The clustering view holds 20@3; the RPS view's 20@6 must not be asked.
		{envelope{Kind: wireWUPReply, From: 1, Descs: []overlay.Descriptor{
			phantom(0, 9, 1), phantom(9, 9, 2), phantom(20, 2, 300), phantom(20, 3, 300), phantom(20, 4, 300), phantom(21, 5, 301)}},
			"20@4"},
		// A refill reply is merged into both views: 20@5 is stale for one and
		// fresh for the other, 26 is held by the RPS view only, 27 by the
		// clustering view only; 21, 22 and 25 both hold.
		{envelope{Kind: wireRefillReply, From: 1, Descs: []overlay.Descriptor{
			phantom(23, 5, 303), phantom(20, 5, 300), phantom(21, 5, 301), phantom(22, 4, 302),
			phantom(25, 5, 305), phantom(26, 5, 306), phantom(27, 5, 307), phantom(0, 9, 1)}},
			"23@5 20@5 26@5 27@5"},
		{envelope{Kind: wireRefillRequest, From: 1, Descs: []overlay.Descriptor{phantom(1, 7, 100), phantom(20, 6, 300)}}, "1@7"},
		{envelope{Kind: wireDeparture, From: 2, Descs: []overlay.Descriptor{phantom(30, 5, 310)}, Tombs: []overlay.Tombstone{{Node: 2, Stamp: 1}}}, ""},
	}
	for _, st := range steps {
		script = append(script, appendEnvelope(nil, st.env))
		kept = append(kept, st.kept)
	}
	return script, kept
}

// TestOnFrameMatchesDecodeThenDispatch is the differential for decoding on
// the node: a scripted sequence driven through onFrame — duplicates dropped
// before decode, descriptors the merge would discard never built, snapshots
// the other view holds shared — leaves a node with the same views, profile,
// seen set, feed ring and outgoing frames as decoding every frame in full and
// handing it to onMessage, which is what the transports used to do. Where the
// script says so, a frame must also decode to exactly the descriptors the
// merge takes: a rule that skips less is invisible in the node's state.
func TestOnFrameMatchesDecodeThenDispatch(t *testing.T) {
	const cycle = 2
	held, heldKept := heldScript()
	for _, tc := range []struct {
		name     string
		script   [][]byte
		kept     []string
		rps, wup int
		frames   int // replies the script must provoke, lest it be vacuous
	}{
		{"small-views", frameScript(), nil, 6, 0, 8},
		{"held-descriptors", held, heldKept, 12, 16, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, refTap := frameFleetSized(t, tc.rps, tc.wup)
			for _, payload := range tc.script {
				var env envelope
				if decodePayload(&env, payload, nil, nil) == nil {
					ref.onMessage(env, cycle)
				}
			}
			got, gotTap := frameFleetSized(t, tc.rps, tc.wup)
			for i, payload := range tc.script {
				if tc.kept != nil {
					env, _ := got.decodeFrame(payload)
					var kept []string
					for _, d := range env.Descs {
						kept = append(kept, fmt.Sprintf("%d@%d", d.Node, d.Stamp))
					}
					if k := strings.Join(kept, " "); k != tc.kept[i] {
						t.Errorf("frame %d decoded to descriptors [%s], the merge takes [%s]", i, k, tc.kept[i])
					}
				}
				got.onFrame(pooled(payload), cycle)
			}

			if g, w := nodeState(got, tc.script), nodeState(ref, tc.script); g != w {
				t.Errorf("node state diverged:\n--- decode+onMessage\n%s\n--- onFrame\n%s", w, g)
			}
			if len(gotTap.frames) != len(refTap.frames) {
				t.Fatalf("onFrame sent %d frames, decode+onMessage %d", len(gotTap.frames), len(refTap.frames))
			}
			for i := range refTap.frames {
				if !bytes.Equal(gotTap.frames[i], refTap.frames[i]) {
					t.Errorf("outgoing frame %d differs", i)
				}
			}
			if len(refTap.frames) < tc.frames {
				t.Fatalf("vacuous script: %d frames out", len(refTap.frames))
			}
			if tc.kept == nil {
				if len(ref.feed) != 2 || ref.feedNext == 0 {
					t.Fatalf("vacuous script: feed %d/%d", len(ref.feed), ref.feedNext)
				}
				if refTap.dislikeForwards == 0 {
					t.Fatalf("vacuous script: no dislike forward (View.MostSimilar) among %d frames out", len(refTap.frames))
				}
				return
			}
			// Equal snapshots are one pointer across the two views; equal
			// keys alone are not.
			rps, wup := got.node.RPS().View(), got.node.WUP().View()
			for _, id := range []news.NodeID{21, 26, 27} {
				r, _ := rps.Get(id)
				w, _ := wup.Get(id)
				if r.Profile == nil || r.Profile != w.Profile {
					t.Errorf("node %d: the views hold equal snapshots %p and %p, want one", id, r.Profile, w.Profile)
				}
			}
			r, _ := rps.Get(25)
			w, _ := wup.Get(25)
			if r.Profile == w.Profile || r.Profile.Equal(w.Profile) {
				t.Errorf("node 25: two contents under one (node, stamp) collapsed into %v", r.Profile)
			}
		})
	}
}

// TestDuplicateFrameAllocatesNothing pins the point of deciding before
// decoding: a frame whose item the node has seen costs a hash of its content
// bytes and a binary search of its SIR set — no string, no profile, no
// envelope.
func TestDuplicateFrameAllocatesNothing(t *testing.T) {
	ln, _ := frameFleet(t)
	payload := appendEnvelope(nil, repItem())
	ln.onFrame(pooled(payload), 1)
	if !ln.node.Seen(repItem().Item.Item.ID) {
		t.Fatal("first receipt must mark the item seen")
	}
	// One prepared buffer per call (AllocsPerRun adds a warm-up call), so the
	// measurement owes nothing to what the pool happens to hold.
	const runs = 300
	bufs := make([]*[]byte, runs+1)
	for i := range bufs {
		b := append([]byte(nil), payload...)
		bufs[i] = &b
	}
	next := 0
	if avg := testing.AllocsPerRun(runs, func() { ln.onFrame(bufs[next], 1); next++ }); avg != 0 {
		t.Fatalf("duplicate item frame allocates %.1f/op, want 0", avg)
	}
}

// nullNet is a transport that delivers nothing and records nothing: Send
// hands the payload straight back to the pool, so an allocation count taken
// through it is the sending node's own.
type nullNet struct{ *ChannelNet }

func (nullNet) Send(_, _ news.NodeID, payload *[]byte) { putBuf(payload) }

// TestItemFrameAllocsPinned pins what the first receipt of an item frame
// costs through onFrame, liked and disliked, with and without a feed ring.
// The frame decodes and folds into pooled scratch and appends its sends to
// it, so what is left is what outlives the frame: the item's content string,
// the collector's statistics of the new item and, with a feed, the record's
// packed profile. Decoding and folding into new profiles and returning a new
// sends slice made 7 and 5 (liked and disliked, no feed). The node is steady: a cycle
// begins before each frame (the user profile holds one window of opinions),
// the ring has wrapped, and the scratch has grown in the warm-up. The race
// detector's sync.Pool drops the scratch at random, so the test runs without
// it.
func TestItemFrameAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	for _, tc := range []struct {
		name  string
		liked bool
		feed  int
		want  float64
	}{
		{"liked/feed64", true, 64, 3},
		{"liked/feed0", true, 0, 2},
		{"disliked/feed64", false, 64, 3},
		{"disliked/feed0", false, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := nullNet{NewChannelNet(5, 0, 0)}
			t.Cleanup(net.Close)
			liked := tc.liked
			r := NewRunner(Config{
				Seed:         5,
				NodeConfig:   core.Config{FLike: 4, RPSViewSize: 6, WUPViewSize: 6, ProfileWindow: 20},
				FeedCapacity: tc.feed,
				Opinions:     core.OpinionFunc(func(news.NodeID, news.ID) bool { return liked }),
			}, dataset.Blank(3, 1), net)
			ln := member(r, 0)
			ln.node.SeedViews([]overlay.Descriptor{phantom(1, 1, 100), phantom(2, 1, 101)})
			// Frame i is a new item created at cycle i, carrying a 12-entry
			// item profile stamped inside the window.
			const warm, runs = 200, 100
			cycle := int64(0)
			frames := make([]*[]byte, warm+runs+1)
			for i := range frames {
				env := scriptItem(i, 1)
				env.Item.Item.Created = int64(i + 1)
				p := profile.New()
				for j := 0; j < 12; j++ {
					p.Set(news.ID(1000*i+j), int64(i+1), float64(j%2))
				}
				env.Item.Profile = p
				b := appendEnvelope(nil, env)
				frames[i] = &b
			}
			next := 0
			receive := func() {
				cycle++
				ln.node.BeginCycle(cycle)
				ln.onFrame(frames[next], cycle)
				next++
			}
			for next < warm {
				receive()
			}
			sent := r.col.Messages(metrics.MsgBeep)
			if min := map[bool]int64{true: 2 * warm, false: warm}[liked]; sent < min || (tc.feed > 0 && ln.feedNext == 0) {
				t.Fatalf("vacuous: %d forwards from %d frames (feed %d/%d)", sent, warm, len(ln.feed), ln.feedNext)
			}
			if got := testing.AllocsPerRun(runs, receive); got != tc.want {
				t.Errorf("a first receipt allocates %.1f/frame, want %.0f", got, tc.want)
			}
		})
	}
}

// TestHeldDescriptorFrameAllocatesNothingForProfiles pins what a gossip
// frame costs through onFrame. Its descriptors are decoded into the node's
// reused list, and the snapshots it does not hold are borrowed from the
// frame, so decoding allocates nothing: a frame costs only the owned copy of
// each snapshot a view keeps, one allocation (the snapshot, its bytes boxed
// with it), and one copy however many views keep it. Descriptors the merge
// discards, snapshots the other view holds and first sightings that lose the
// trim cost nothing. The race detector's sync.Pool drops pooled scratch at random, so
// the frames whose merge trims a view, which borrows the trim's scratch from
// a pool, are checked without it.
func TestHeldDescriptorFrameAllocatesNothingForProfiles(t *testing.T) {
	frame := func(kind wireKind, descs ...overlay.Descriptor) []byte {
		return appendEnvelope(nil, envelope{Kind: kind, From: 1, Descs: descs})
	}
	// allocs runs onFrame on a fresh copy of payload(i) per call (AllocsPerRun
	// adds a warm-up call), so that a frame may be new every time.
	allocs := func(ln *liveNode, payload func(i int) []byte) float64 {
		const runs = 100
		bufs := make([]*[]byte, runs+1)
		for i := range bufs {
			b := payload(i)
			bufs[i] = &b
		}
		next := 0
		return testing.AllocsPerRun(runs, func() { ln.onFrame(bufs[next], 2); next++ })
	}
	same := func(payload []byte) func(int) []byte {
		return func(int) []byte { return append([]byte(nil), payload...) }
	}

	// A clustering view of 4 full of neighbours similar to the user: a
	// candidate sharing nothing with the user loses every trim.
	ln, _ := frameFleetSized(t, 12, 4)
	for _, id := range []news.ID{100, 101, 102} {
		ln.node.UserProfile().Set(id, 1, 1)
	}
	ln.onFrame(pooled(frame(wireWUPReply, phantom(20, 5, 100, 101), phantom(21, 5, 100, 102),
		phantom(22, 5, 101, 102), phantom(23, 5, 100, 101, 102))), 2)
	ln.onFrame(pooled(frame(wireRPSReply, repDescriptor(30), repDescriptor(31))), 2)
	for _, tc := range []struct {
		name    string
		payload func(int) []byte
		want    float64
		trims   bool
	}{
		{"descriptors the merge discards", same(frame(wireRPSReply, repDescriptor(30), repDescriptor(31), repDescriptor(0))), 0, false},
		{"snapshots the other view holds (the list)", same(frame(wireWUPReply, repDescriptor(30), repDescriptor(31), repDescriptor(20))), 0, true},
		{"first sightings that lose the trim", same(frame(wireWUPReply, phantom(40, 5, 900), phantom(41, 5, 901, 902), repDescriptor(42))), 0, true},
		{"one kept snapshot", func(i int) []byte { return frame(wireRPSReply, phantom(50, int64(5+i), 103)) }, 1, false},
		{"two kept snapshots", func(i int) []byte {
			return frame(wireRPSReply, phantom(50, int64(200+i), 103), repDescriptor(30), phantom(51, int64(5+i), 104))
		}, 2, false},
	} {
		if tc.trims && raceEnabled {
			continue
		}
		if n := allocs(ln, tc.payload); n != tc.want {
			t.Errorf("%s: %.1f allocations/frame, want %.0f", tc.name, n, tc.want)
		}
	}
	if wup := ln.node.WUP().View(); !raceEnabled && (wup.Contains(40) || wup.Contains(41) || wup.Contains(42) || wup.Len() != 4) {
		t.Errorf("vacuous: the losing candidates were kept (view %v)", wup.Nodes())
	}

	// A refill reply merges into both views while the clustering view is
	// under the watermark: the snapshot both keep is one copy.
	ln, _ = frameFleetSized(t, 12, 16)
	if n := allocs(ln, func(i int) []byte { return frame(wireRefillReply, phantom(60, int64(5+i), 105)) }); n != 1 {
		t.Errorf("a refill reply kept by both views: %.1f allocations/frame, want 1 (one copy)", n)
	}
	r, _ := ln.node.RPS().View().Get(60)
	w, _ := ln.node.WUP().View().Get(60)
	if r.Profile == nil || r.Profile != w.Profile {
		t.Errorf("the views keep the refill reply's snapshot as %p and %p, want one copy", r.Profile, w.Profile)
	}
}

// repDescriptor is a descriptor with a window-sized profile.
func repDescriptor(id news.NodeID) overlay.Descriptor {
	return overlay.Descriptor{Node: id, Stamp: 5, Profile: snapshotOf(repProfile(25, int(id)))}
}

// TestDecodedEnvelopeDoesNotAliasBuffer: inbox buffers go back to the pool
// the moment a frame is handled, so nothing decoded from one may point into
// it — scribbling over the buffer must not change the envelope.
func TestDecodedEnvelopeDoesNotAliasBuffer(t *testing.T) {
	for name, env := range roundTripCases() {
		payload := appendEnvelope(nil, env)
		var first, second envelope
		scratch := append([]byte(nil), payload...)
		if err := decodePayload(&first, scratch, nil, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range scratch {
			scratch[i] = 0xFF
		}
		if err := decodePayload(&second, payload, nil, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !envelopesEqual(first, second) {
			t.Fatalf("%s: decoded envelope changed when its buffer was overwritten", name)
		}
	}
}

// TestOversizedBuffersAreNotPooled: a buffer that grew for a rare large
// frame must not come back from the pool to sit in an inbox behind a
// 400-byte item frame.
func TestOversizedBuffersAreNotPooled(t *testing.T) {
	big := envelope{Kind: wireRPSRequest, From: 1, To: 2}
	for i := 0; len(appendEnvelope(nil, big)) <= maxPooledBuf; i++ {
		big.Descs = append(big.Descs, overlay.Descriptor{Node: news.NodeID(i), Profile: snapshotOf(repProfile(100, i))})
	}
	buf, err := readFrame(bufio.NewReader(bytes.NewReader(encodeFrame(big))))
	if err != nil {
		t.Fatal(err)
	}
	if cap(*buf) <= maxPooledBuf {
		t.Fatalf("test frame fits a pooled buffer (%d bytes)", cap(*buf))
	}
	putBuf(buf)
	// A Put followed by a Get on one goroutine returns the same object when
	// it was pooled at all.
	if got := getBuf(); cap(*got) > maxPooledBuf {
		t.Fatalf("a %d-byte buffer came back from the pool, limit %d", cap(*got), maxPooledBuf)
	}
}
