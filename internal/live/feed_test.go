package live

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/news"
	"whatsup/internal/profile"
)

// feedFleet builds a one-node fleet whose node keeps a feed of the given
// capacity and likes the items whose id is not a multiple of 3; the test is
// the scheduler. With no neighbours the node forwards nothing, and started,
// the fleet runs until cancelled with a clock that never ticks during a test.
func feedFleet(t *testing.T, capacity int, metric profile.Metric) (*Runner, *liveNode) {
	t.Helper()
	net := NewChannelNet(1, 0, 0)
	t.Cleanup(net.Close)
	r := NewRunner(Config{
		Seed:         1,
		Cycles:       -1,
		CycleLength:  time.Hour,
		NodeConfig:   core.Config{FLike: 2, RPSViewSize: 6, ProfileWindow: 100, Metric: metric},
		FeedCapacity: capacity,
		Opinions:     core.OpinionFunc(func(_ news.NodeID, id news.ID) bool { return id%3 != 0 }),
	}, dataset.Blank(1, 1), net)
	return r, member(r, 0)
}

// escapedScore is a finite score the packed codec cannot shift into its
// varint form and writes behind the escape code, raw.
var escapedScore = math.Float64frombits(0xFDFFFFFFFFFFFFFF)

// feedScriptItem is item i of the bit-identity script: an item profile of n
// entries that rates ids the user profile holds (so scores are not all zero)
// and hashed ids it does not, with binary, dyadic and non-dyadic scores, and
// on item 7 one escaped score (its square overflows: that item's norm is +Inf).
func feedScriptItem(i, n int, rated []news.ID) envelope {
	scores := []float64{1, 0, 0.5, 1.0 / 3, 0.1, 0.8125, 2.0 / 7}
	p := profile.New()
	for k := 0; k < n; k++ {
		id := news.Hash(fmt.Sprintf("feed-%d-%d", i, k), "", "")
		if k%2 == 0 {
			id = rated[(i+k/2)%len(rated)]
		}
		score := scores[(i*3+k)%len(scores)]
		if i == 7 && k == 1 {
			score = escapedScore
		}
		p.Set(id, int64(1+k%7), score)
	}
	it := news.New(fmt.Sprintf("Feed item %d", i), "a description", fmt.Sprintf("https://example.org/feed/%d", i), int64(i), 1)
	return envelope{Kind: wireItem, From: 1, Item: core.ItemMessage{Item: it, Profile: p, Dislikes: i % 2, Hops: 1 + i%4, ViaDislike: i%3 == 0}}
}

// TestFeedMatchesArrivalDecode holds Runner.Feed to a reference built
// independently of the feed ring: each delivered frame decoded with
// core.DecodeItemMessage and its item profile scored against the user
// profile, then ranked with the documented order. The script wraps the ring,
// mixes profile sizes (empty, growing and shrinking, so a scratch profile
// that carried anything from one record to the next would show), flips an
// opinion through Feedback, and uses non-dyadic and escaped scores, whose
// norms depend on the order the squares are summed in. Every field must
// match, the score to the bit.
func TestFeedMatchesArrivalDecode(t *testing.T) {
	const capacity = 5
	sizes := []int{3, 40, 1, 17, 0, 25, 8, 60, 2, 12, 30}
	for _, metric := range []profile.Metric{profile.WUP{}, profile.Cosine{}} {
		t.Run(metric.Name(), func(t *testing.T) {
			r, ln := feedFleet(t, capacity, metric)
			user := ln.node.UserProfile()
			var rated []news.ID
			for k := 0; k < 12; k++ {
				id := news.Hash(fmt.Sprintf("rated-%d", k), "", "")
				user.Set(id, 0, float64(k%2))
				rated = append(rated, id)
			}
			type delivered struct {
				payload []byte
				cycle   int64
			}
			var frames []delivered
			for i, n := range sizes {
				payload := appendEnvelope(nil, feedScriptItem(i, n, rated))
				cycle := int64(10 + i)
				ln.onFrame(pooled(payload), cycle)
				frames = append(frames, delivered{payload, cycle})
				if i == 6 { // a repeat by another path is not a second record
					ln.onFrame(pooled(frames[5].payload), cycle)
				}
			}
			if len(ln.feed) != capacity || ln.feedNext == 0 {
				t.Fatalf("vacuous script: the ring holds %d records, next slot %d", len(ln.feed), ln.feedNext)
			}
			// Flip the user's opinion on the newest item and rate one that is
			// not in the feed.
			newest := feedScriptItem(len(sizes)-1, 0, rated).Item.Item.ID
			ent, _ := user.Get(newest)
			if err := r.Feedback(0, newest, ent.Score < 0.5); err != nil {
				t.Fatal(err)
			}
			if err := r.Feedback(0, rated[3], true); err != nil {
				t.Fatal(err)
			}

			var want []FeedEntry
			for _, f := range frames[len(frames)-capacity:] {
				_, _, _, body, err := envelopeHeader(f.payload)
				if err != nil {
					t.Fatal(err)
				}
				msg, _, err := core.DecodeItemMessage(body)
				if err != nil {
					t.Fatal(err)
				}
				e := FeedEntry{Item: msg.Item, Score: metric.Similarity(user, msg.Profile), Cycle: f.cycle, Hops: msg.Hops, ViaDislike: msg.ViaDislike}
				if ent, ok := user.Get(msg.Item.ID); ok {
					e.Rated, e.Liked = true, ent.Score >= 0.5
					if e.Liked {
						e.Score++
					} else {
						e.Score--
					}
				}
				want = append(want, e)
			}
			sort.SliceStable(want, func(i, j int) bool {
				if want[i].Score != want[j].Score {
					return want[i].Score > want[j].Score
				}
				if want[i].Cycle != want[j].Cycle {
					return want[i].Cycle > want[j].Cycle
				}
				return want[i].Item.ID < want[j].Item.ID
			})

			fractional := 0
			for _, e := range want {
				if e.Score != math.Trunc(e.Score) {
					fractional++
				}
			}
			if fractional < 3 {
				t.Fatalf("vacuous script: %d of %d reference scores are fractional", fractional, len(want))
			}
			for call := 0; call < 2; call++ {
				got, err := r.Feed(0)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("call %d: %d entries, reference %d", call, len(got), len(want))
				}
				for i, g := range got {
					w := want[i]
					if g.Item != w.Item || math.Float64bits(g.Score) != math.Float64bits(w.Score) || g.Rated != w.Rated ||
						g.Liked != w.Liked || g.Cycle != w.Cycle || g.Hops != w.Hops || g.ViaDislike != w.ViaDislike {
						t.Errorf("call %d entry %d: got %+v (score bits %#x), reference %+v (%#x)",
							call, i, g, math.Float64bits(g.Score), w, math.Float64bits(w.Score))
					}
				}
			}
		})
	}
}

// hashedItem is a headline-sized item whose arrival profile has n entries
// keyed by content-hash ids, with the averaged scores item profiles carry.
func hashedItem(i, n int) envelope {
	scores := []float64{1, 0, 0.5, 0.75, 0.25, 0.625}
	p := profile.New()
	for k := 0; k < n; k++ {
		p.Set(news.Hash(fmt.Sprintf("story-%d-%d", i, k), "d", "l"), int64(1+k%25), scores[k%len(scores)])
	}
	it := news.New(fmt.Sprintf("An example headline of usual length, number %d", i), "one line of description text",
		fmt.Sprintf("https://news.example.org/story/%d", i), 21, 42)
	return envelope{Kind: wireItem, From: 1, Item: core.ItemMessage{Item: it, Profile: p, Hops: 1 + i%5}}
}

// fillFeed delivers count items to the node, item i's profile growing to
// entries over the run as arrival profiles do.
func fillFeed(ln *liveNode, count, entries int) {
	for i := 0; i < count; i++ {
		ln.onFrame(pooled(appendEnvelope(nil, hashedItem(i, 1+(entries-1)*i/(count-1)))), int64(1+i))
	}
}

// TestFeedAllocsPerCall pins what one Runner.Feed costs in allocations on a
// full ring: the same constant whatever the ring's capacity and its
// profiles' sizes — the result slice, the records being scored where they
// lie — never one per record, and the same whether the fleet is stopped or
// running. A decode into a fresh profile per record shows here as a count
// that grows with the ring.
func TestFeedAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const want = 1
	for _, tc := range []struct{ capacity, entries int }{{64, 120}, {64, 10}, {16, 120}} {
		r, ln := feedFleet(t, tc.capacity, nil)
		fillFeed(ln, tc.capacity+tc.capacity/2, tc.entries)
		if len(ln.feed) != tc.capacity || ln.feedNext == 0 {
			t.Fatalf("capacity %d: the ring holds %d records, next slot %d; want it full and wrapped", tc.capacity, len(ln.feed), ln.feedNext)
		}
		perFeed := func(fleet string) {
			got := testing.AllocsPerRun(50, func() {
				if entries, err := r.Feed(0); err != nil || len(entries) != tc.capacity {
					t.Fatalf("%s fleet: feed: %d entries, err %v", fleet, len(entries), err)
				}
			})
			if got != want {
				t.Errorf("%s fleet, capacity %d, up to %d entries a profile: %.1f allocations per Feed, want %d",
					fleet, tc.capacity, tc.entries, got, want)
			}
		}
		perFeed("stopped")

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.RunContext(ctx)
		}()
		for !running(r) {
			runtime.Gosched()
		}
		perFeed("running")
		cancel()
		<-done
	}
}

// running reports whether the runner's fleet reads as running.
func running(r *Runner) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.running
}

// collectedHeap returns the heap that survives collection. It collects
// twice: the first moves sync.Pool contents (frame buffers) to the victim
// cache, the second frees them.
func collectedHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFeedRingBytesPerRecord bounds what a retained delivery costs for as
// long as the feed keeps it: a full 64-record ring of items whose arrival
// profiles have 120 content-hash entries must hold at most 16 bytes an entry
// plus 256 bytes a record — the ring slot, the item's strings and the
// packed profile fit; a decoded snapshot (24 bytes an entry plus its header)
// does not.
func TestFeedRingBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates the heap")
	}
	const capacity, entries = 64, 120
	const maxBytesPerRecord = 16*entries + 256
	r, ln := feedFleet(t, capacity, nil)
	for i := 0; i < capacity; i++ {
		ln.onFrame(pooled(appendEnvelope(nil, hashedItem(i, entries))), int64(1+i))
	}
	if len(ln.feed) != capacity {
		t.Fatalf("the ring holds %d records, want %d", len(ln.feed), capacity)
	}
	withRing := collectedHeap()
	ln.feed = nil
	perRecord := float64(withRing-collectedHeap()) / capacity
	runtime.KeepAlive(r)
	t.Logf("%.1f bytes retained per record of %d entries (bound %d)", perRecord, entries, maxBytesPerRecord)
	if perRecord > maxBytesPerRecord {
		t.Fatalf("%.1f bytes retained per record, want <= %d", perRecord, maxBytesPerRecord)
	}
}

// TestFeedRecordSize pins a feed ring slot at the size Config.FeedCapacity
// documents: every node keeps up to that many, so a field added to a record
// is paid for by every retained delivery of every node.
func TestFeedRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit platforms")
	}
	if got := unsafe.Sizeof(feedRecord{}); got != 144 {
		t.Fatalf("a feed record is %d bytes, want 144", got)
	}
}

// TestFeedScoresInPlaceMatchDecode: on a full ring of records with averaged
// item-profile scores, scored against a user profile edited with removals
// that shares some of those averaged entries, every feed score has the bits
// the decode path gives — the record's bytes decoded into a Profile and
// scored by Similarity.
func TestFeedScoresInPlaceMatchDecode(t *testing.T) {
	for _, metric := range []profile.Metric{profile.WUP{}, profile.Cosine{}} {
		t.Run(metric.Name(), func(t *testing.T) {
			r, ln := feedFleet(t, 32, metric)
			fillFeed(ln, 48, 40)
			user := ln.node.UserProfile()
			var held []news.ID
			for i := 0; i < 48; i++ {
				for k := 0; k < 40; k += 3 {
					if k%7 == 0 {
						continue // an item the user holds no opinion on
					}
					id := news.Hash(fmt.Sprintf("story-%d-%d", i, k), "d", "l")
					user.Set(id, 1, float64((i+k)%2))
					held = append(held, id)
				}
			}
			want := make(map[news.ID]float64)
			nonzero, averaged := 0, 0
			for i := range ln.feed {
				rec := ln.feedAt(i)
				p, _, err := profile.DecodeWire(rec.profile.AppendWire(nil))
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range held {
					if e, ok := p.Get(id); ok && e.Score != 0 && e.Score != 1 {
						averaged++
					}
				}
				s := metric.Similarity(user, p)
				if ent, ok := user.Get(rec.item.ID); ok && ent.Score >= 0.5 {
					s++
				} else if ok {
					s--
				}
				if s != 0 {
					nonzero++
				}
				want[rec.item.ID] = s
			}
			if nonzero < len(ln.feed)/2 || averaged == 0 {
				t.Fatalf("vacuous: %d of %d scores are nonzero, %d averaged entries are shared", nonzero, len(ln.feed), averaged)
			}
			got, err := r.Feed(0)
			if err != nil || len(got) != len(want) {
				t.Fatalf("feed: %d entries, err %v; want %d", len(got), err, len(want))
			}
			for _, e := range got {
				if w := want[e.Item.ID]; math.Float64bits(e.Score) != math.Float64bits(w) {
					t.Errorf("%s: feed score %v (%#x), decode %v (%#x)", e.Item.ID, e.Score, math.Float64bits(e.Score), w, math.Float64bits(w))
				}
			}
		})
	}
}
