package live

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// frameFleet builds a never-started three-node fleet on a tapNet whose node
// 0 likes the items whose id is even; the test is the scheduler.
func frameFleet(t *testing.T) (*liveNode, *tapNet) {
	t.Helper()
	tap := newTapNet(5)
	t.Cleanup(tap.Close)
	r := NewRunner(Config{
		Seed:             5,
		NodeConfig:       core.Config{FLike: 2, RPSViewSize: 6, ProfileWindow: 20, DescriptorTTL: 10},
		DepartureNotices: true,
		RefillWatermark:  0.5,
		FeedCapacity:     2, // smaller than the script's deliveries: the ring wraps
		Opinions:         core.OpinionFunc(func(_ news.NodeID, id news.ID) bool { return id%2 == 0 }),
	}, dataset.Blank(3, 1), tap)
	return r.fleet[0], tap
}

// pooled copies a payload into a pooled buffer, as a transport would.
func pooled(payload []byte) *[]byte {
	buf := getBuf()
	*buf = append(*buf, payload...)
	return buf
}

func scriptItem(i int, from news.NodeID) envelope {
	p := profile.New()
	p.Set(news.ID(100+i), 1, 1)
	p.Set(news.ID(200+i), 1, 0.5)
	it := news.New(fmt.Sprintf("title-%d", i), "a description", "https://example.org/"+fmt.Sprint(i), 1, from)
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
	fmt.Fprintf(&b, "user: %v\nseen:", ln.node.UserProfile())
	for _, payload := range script {
		if kind, _, _, body, err := envelopeHeader(payload); err == nil && kind == wireItem {
			id, _ := core.PeekItemID(body)
			fmt.Fprintf(&b, " %v", ln.node.Seen(id))
		}
	}
	b.WriteString("\nfeed:")
	for _, rec := range ln.feedInOrder() {
		fmt.Fprintf(&b, " {%+v %v c%d h%d %v}", rec.item, rec.profile, rec.cycle, rec.hops, rec.viaDislike)
	}
	return b.String()
}

// TestOnFrameMatchesDecodeThenDispatch is the differential for the move of
// decoding onto the node: the scripted sequence driven through onFrame —
// duplicates dropped before decode — leaves a node with the same views,
// profile, seen set, feed ring and outgoing frames as decoding every frame
// and handing it to onMessage, which is what the transports used to do.
func TestOnFrameMatchesDecodeThenDispatch(t *testing.T) {
	const cycle = 2
	script := frameScript()

	ref, refTap := frameFleet(t)
	for _, payload := range script {
		var env envelope
		if decodePayload(&env, payload) == nil {
			ref.onMessage(env, cycle)
		}
	}
	got, gotTap := frameFleet(t)
	for _, payload := range script {
		got.onFrame(pooled(payload), cycle)
	}

	if g, w := nodeState(got, script), nodeState(ref, script); g != w {
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
	if len(refTap.frames) < 8 || len(ref.feed) != 2 || ref.feedNext == 0 {
		t.Fatalf("vacuous script: %d frames out, feed %d/%d", len(refTap.frames), len(ref.feed), ref.feedNext)
	}
}

// TestDuplicateFrameAllocatesNothing pins the point of deciding before
// decoding: a frame whose item the node has seen costs a hash of its content
// bytes and a map probe — no string, no profile, no envelope.
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

// TestDecodedEnvelopeDoesNotAliasBuffer: inbox buffers go back to the pool
// the moment a frame is handled, so nothing decoded from one may point into
// it — scribbling over the buffer must not change the envelope.
func TestDecodedEnvelopeDoesNotAliasBuffer(t *testing.T) {
	for name, env := range roundTripCases() {
		payload := appendEnvelope(nil, env)
		var first, second envelope
		scratch := append([]byte(nil), payload...)
		if err := decodePayload(&first, scratch); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range scratch {
			scratch[i] = 0xFF
		}
		if err := decodePayload(&second, payload); err != nil {
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
		big.Descs = append(big.Descs, overlay.Descriptor{Node: news.NodeID(i), Profile: repProfile(100, i)})
	}
	buf, err := readFrame(bufio.NewReader(bytes.NewReader(appendFrame(nil, big))))
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
