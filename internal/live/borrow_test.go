package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// scoreLog is a similarity metric that logs every score it computes. A view
// scores only what its cache misses, so two nodes with equal logs made the
// same scores and had the same cache hits.
type scoreLog struct {
	profile.WUP
	scores []float64
}

func (m *scoreLog) Similarity(n, c *profile.Profile) float64 {
	s := m.WUP.Similarity(n, c)
	m.scores = append(m.scores, s)
	return s
}

func (m *scoreLog) SimilarityPacked(n *profile.Profile, c *profile.Packed) float64 {
	s := m.WUP.SimilarityPacked(n, c)
	m.scores = append(m.scores, s)
	return s
}

// cloningFrame is onFrame with the snapshots a node does not hold cloned at
// decode rather than borrowed from the payload, and an item decoded into a
// new profile and folded and forwarded in scratch of its own rather than
// pooled scratch: the decode a node used before frames were borrowed from.
func cloningFrame(ln *liveNode, payload []byte, cycle int64) {
	kind, _, _, _, err := envelopeHeader(payload)
	if err != nil {
		return
	}
	ln.held = heldViews{node: ln.node, into: mergesInto[kind]}
	var env envelope
	if decodePayload(&env, payload, &ln.held, nil) == nil {
		ln.onMessage(env, cycle)
	}
}

// randomFrame is one inbound frame for node 0: any gossip kind, an item or a
// departure notice. Descriptors name a small population, node 0 included, at
// a few stamps, with contents drawn from a small set, so that a frame holds
// descriptors the node holds, discards and shares across its views, and two
// contents under one (node, stamp).
func randomFrame(rng *rand.Rand, contents []*profile.Packed, cycle int64) []byte {
	kinds := []wireKind{wireRPSRequest, wireRPSReply, wireWUPRequest, wireWUPReply,
		wireRefillRequest, wireRefillReply, wireRefillReply, wireDeparture, wireItem}
	env := envelope{Kind: kinds[rng.Intn(len(kinds))], From: news.NodeID(1 + rng.Intn(2))}
	if env.Kind == wireItem {
		// A creation stamp of the current cycle keeps the item inside the
		// profile window.
		item := scriptItem(rng.Intn(40), env.From)
		item.Item.Item.Created = cycle
		return appendEnvelope(nil, item)
	}
	if env.Kind != wireDeparture {
		for i, n := 0, rng.Intn(12); i < n; i++ {
			env.Descs = append(env.Descs, overlay.Descriptor{
				Node:    news.NodeID(rng.Intn(24)),
				Stamp:   cycle - int64(rng.Intn(4)),
				Profile: contents[rng.Intn(len(contents))],
			})
		}
	}
	if env.Kind == wireDeparture || rng.Intn(6) == 0 {
		env.Tombs = []overlay.Tombstone{{Node: news.NodeID(3 + rng.Intn(21)), Stamp: cycle}}
	}
	return appendEnvelope(nil, env)
}

// scribbleScratch overwrites the item scratch the pool hands out next —
// without the race detector, the one the last frame handed back — with
// entries no frame carries.
func scribbleScratch() {
	s := scratchPool.Get().(*itemScratch)
	junk := profile.New()
	for id := news.ID(1 << 50); id < 1<<50+64; id++ {
		junk.Set(id, -1, 0.25)
	}
	s.arrived.Fold(junk, junk, 0)
	s.folded.Fold(junk, junk, 0)
	scratchPool.Put(s)
}

// viewShape renders which node ids the two views of a node keep as one
// snapshot.
func viewShape(ln *liveNode) string {
	wup := ln.node.WUP().View()
	var b bytes.Buffer
	for _, r := range ln.node.RPS().View().Entries() {
		if w, ok := wup.Get(r.Node); ok && w.Profile == r.Profile {
			fmt.Fprintf(&b, " %d", r.Node)
		}
	}
	return b.String()
}

// snapshots counts the view entries of a node holding each snapshot.
func snapshots(ln *liveNode) map[*profile.Packed]int {
	held := map[*profile.Packed]int{}
	for _, v := range []*overlay.View{ln.node.RPS().View(), ln.node.WUP().View()} {
		v.ForEach(func(d overlay.Descriptor) { held[d.Profile]++ })
	}
	return held
}

// TestBorrowedFramesMatchClonedFrames is the differential for borrowing
// snapshots from the frame: over random frames of every kind, refill replies
// included, with cycle ticks between them, a node fed through onFrame ends
// every frame with the same views, the same snapshots shared across its
// views, the same scores and cache hits (scoreLog), and sends the same frames
// as a node fed through the cloning decode, and its feed ring matches after
// every frame. After each onFrame the test scribbles 0xFF over the frame's
// buffer, so a view entry, score-cache slot, graveyard or feed record still
// aliasing it would read differently: a stale cache slot keyed to a reused
// arena address would hit for a snapshot it never scored. It scribbles over
// the pooled item scratch too (scribbleScratch), so a feed record or a send
// still aliasing the scratch would read differently. A clustering view of 4 is trimmed on most merges; one of 16
// stays under the refill watermark, so refill replies merge into both views.
func TestBorrowedFramesMatchClonedFrames(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		wup                           int
		minKept, minShared, minScores int // lest the script be vacuous
	}{
		{"trimmed", 4, 500, 0, 500},
		{"refilled", 16, 500, 20, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var contents []*profile.Packed
			for i := 0; i < 8; i++ {
				p := profile.New()
				for id := news.ID(100); id < 108; id++ {
					if rng.Intn(3) == 0 {
						p.Set(id, 1, float64(rng.Intn(2)))
					}
				}
				contents = append(contents, snapshotOf(p))
			}
			refLog, gotLog := &scoreLog{}, &scoreLog{}
			ref, refTap := frameFleetScored(t, 6, tc.wup, refLog)
			got, gotTap := frameFleetScored(t, 6, tc.wup, gotLog)
			// A buffer the pool will not keep (putBuf drops it), so it stays
			// the test's to scribble on.
			buf := make([]byte, 0, maxPooledBuf+1)
			var script [][]byte
			kept, shared := 0, 0 // new snapshots in the views, and those both views keep
			cycle := int64(2)
			for i := 0; i < 1000; i++ {
				if i%10 == 9 {
					cycle++
					ref.cycle, got.cycle = cycle, cycle
					ref.onCycle(cycle)
					got.onCycle(cycle)
				}
				payload := randomFrame(rng, contents, cycle)
				script = append(script, payload)
				before := snapshots(got)
				cloningFrame(ref, payload, cycle)
				buf = append(buf[:0], payload...)
				got.onFrame(&buf, cycle)
				buf = buf[:cap(buf)]
				for j := range buf {
					buf[j] = 0xFF
				}
				scribbleScratch()

				if g, w := overlayState(got.node), overlayState(ref.node); g != w {
					t.Fatalf("frame %d (kind %d): views diverged:\n--- cloning\n%s--- borrowing\n%s", i, payload[0], w, g)
				}
				if g, w := feedState(got), feedState(ref); g != w {
					t.Fatalf("frame %d (kind %d): feeds diverged:\n--- cloning\n%s\n--- borrowing\n%s", i, payload[0], w, g)
				}
				if g, w := viewShape(got), viewShape(ref); g != w {
					t.Fatalf("frame %d: the views share snapshots of [%s], cloning [%s]", i, g, w)
				}
				if len(gotLog.scores) != len(refLog.scores) {
					t.Fatalf("frame %d: %d scores computed, cloning %d", i, len(gotLog.scores), len(refLog.scores))
				}
				for p, n := range snapshots(got) {
					if before[p] == 0 {
						kept++
						if n == 2 {
							shared++
						}
					}
				}
			}
			for i := range refLog.scores {
				if g, w := gotLog.scores[i], refLog.scores[i]; g != w {
					t.Fatalf("score %d is %v, cloning %v", i, g, w)
				}
			}
			if g, w := nodeState(got, script), nodeState(ref, script); g != w {
				t.Errorf("node state diverged:\n--- cloning\n%s\n--- borrowing\n%s", w, g)
			}
			if len(gotTap.frames) != len(refTap.frames) {
				t.Fatalf("borrowing sent %d frames, cloning %d", len(gotTap.frames), len(refTap.frames))
			}
			for i := range refTap.frames {
				if !bytes.Equal(gotTap.frames[i], refTap.frames[i]) {
					t.Fatalf("outgoing frame %d differs", i)
				}
			}
			if kept < tc.minKept || shared < tc.minShared || len(refLog.scores) < tc.minScores || len(refTap.frames) < 300 {
				t.Fatalf("vacuous: %d snapshots kept, %d by both views, %d scores, %d frames sent",
					kept, shared, len(refLog.scores), len(refTap.frames))
			}
			t.Logf("%d snapshots kept, %d by both views, %d scores, %d frames sent",
				kept, shared, len(refLog.scores), len(refTap.frames))
		})
	}
}
