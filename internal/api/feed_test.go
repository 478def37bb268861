package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"whatsup/internal/live"
	"whatsup/internal/news"
)

// feedJSON and feedEntryJSON are the feed response's shape as encoding/json
// sees it: the reference appendFeed is held to byte for byte, and the type
// the tests decode feeds into.
type feedJSON struct {
	Node    int32           `json:"node"`
	Entries []feedEntryJSON `json:"entries"`
}

type feedEntryJSON struct {
	Item       itemJSON `json:"item"`
	Score      float64  `json:"score"`
	Rated      bool     `json:"rated"`
	Liked      bool     `json:"liked"`
	Cycle      int64    `json:"cycle"`
	Hops       int      `json:"hops"`
	ViaDislike bool     `json:"via_dislike"`
}

// referenceFeed is what json.Encoder writes for the feed: nothing at all when
// a score is not finite, which it refuses to encode.
func referenceFeed(node news.NodeID, entries []live.FeedEntry) []byte {
	out := feedJSON{Node: int32(node), Entries: make([]feedEntryJSON, 0, len(entries))}
	for _, e := range entries {
		out.Entries = append(out.Entries, feedEntryJSON{
			Item:       toItemJSON(e.Item),
			Score:      e.Score,
			Rated:      e.Rated,
			Liked:      e.Liked,
			Cycle:      e.Cycle,
			Hops:       e.Hops,
			ViaDislike: e.ViaDislike,
		})
	}
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(out)
	return b.Bytes()
}

// discardWriter is a ResponseWriter that keeps the status and the body's
// length only, so that a request's allocations are the handler's own.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestFeedGETAllocsPinned pins what a feed GET allocates beyond the slice
// Fleet.Feed returns: nothing, whatever the feed's length or body size.
// Routing, the Content-Type header and the body, encoded into a pooled
// buffer, make no allocation; an id formatted to a string or an encoder built
// per request shows here as a count, one that grows with the feed if it is
// per entry. The last case's body is about 150 KB, as a full feed of real
// items with long descriptions is: a pool that dropped large buffers would
// grow a new one on every such GET.
func TestFeedGETAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	long := strings.Repeat("A long description, as real feeds carry. ", 50)
	for _, c := range []struct {
		n    int
		desc string
	}{{0, ""}, {1, "a description"}, {64, "a description"}, {64, long}} {
		entries := make([]live.FeedEntry, c.n)
		for i := range entries {
			it := news.New(fmt.Sprintf("Item <%d> & more", i), c.desc, fmt.Sprintf("https://example.org/%d", i), int64(1e12+i), 3)
			entries[i] = live.FeedEntry{Item: it, Score: 1.25 - float64(i)/7, Rated: i%2 == 0, Liked: i%4 == 0, Cycle: int64(100 + i), Hops: i % 5, ViaDislike: i%3 == 0}
		}
		srv := NewServer(&stubFleet{feeds: map[news.NodeID][]live.FeedEntry{2: entries}, members: []live.Member{{ID: 2}}}, nil)
		r := httptest.NewRequest(http.MethodGet, "/v1/nodes/2/feed", nil)
		w := &discardWriter{header: http.Header{}}
		got := testing.AllocsPerRun(100, func() {
			w.code, w.n = 0, 0
			srv.ServeHTTP(w, r)
		})
		if want := len(referenceFeed(2, entries)); w.code != http.StatusOK || w.n != want {
			t.Fatalf("%d entries: status %d with a %d-byte body, want 200 with %d bytes", c.n, w.code, w.n, want)
		}
		if got != 0 {
			t.Errorf("%d entries, %d-byte body: %.0f allocations a feed GET, want 0", c.n, w.n, got)
		}
	}
}

// FuzzFeedJSON holds the feed route's body to encoding/json's, byte for byte:
// string escapes (HTML-sensitive bytes, control bytes, U+2028 and U+2029,
// invalid UTF-8), omitted empty descriptions and links, float formats at the
// exponent cutoffs, and the empty 200 a non-finite score gets. The fuzzed
// entry is served twice, the second time without description or link, so
// the separator between entries is covered too.
func FuzzFeedJSON(f *testing.F) {
	for _, seed := range []struct {
		title, desc, link string
		score             float64
	}{
		{"Hello", "World", "https://example.org/hello?a=1&b=<2>", 0.75},
		{"<>&", "\xff", "  ", 1e-7},
		{"\x00\x01\b\f\n\r\t\x1f\x7f", `"quoted" \ back`, "", math.Copysign(0, -1)},
		{"", "", "", 5e-324},
		{"ünïcödé ✓", "", "x", 1e21},
		{"a\xc3", "\xed\xa0\x80", "\xe2\x80", 123456789.125},
		{"nan", "", "", math.NaN()},
		{"inf", "", "", math.Inf(1)},
		{"-inf", "", "", math.Inf(-1)},
		{"small", "", "", -1e-9},
		{"big", "", "", 1e20},
	} {
		f.Add(seed.title, seed.desc, seed.link, uint64(0x0123456789abcdef), seed.score, int64(1700000000000), int32(7), int64(42), 3, true, false, true)
	}
	f.Fuzz(func(t *testing.T, title, desc, link string, id uint64, score float64, created int64, source int32, cycle int64, hops int, rated, liked, viaDislike bool) {
		e := live.FeedEntry{
			Item:  news.Item{ID: news.ID(id), Title: title, Description: desc, Link: link, Created: created, Source: news.NodeID(source)},
			Score: score, Rated: rated, Liked: liked, Cycle: cycle, Hops: hops, ViaDislike: viaDislike,
		}
		bare := e
		bare.Item.Description, bare.Item.Link = "", ""
		entries := []live.FeedEntry{e, bare}
		srv := NewServer(&stubFleet{feeds: map[news.NodeID][]live.FeedEntry{9: entries}, members: []live.Member{{ID: 9}}}, nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/nodes/9/feed", nil))
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("status %d, content type %q", w.Code, w.Header().Get("Content-Type"))
		}
		if want := referenceFeed(9, entries); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("body\n%q\nwant encoding/json's\n%q", w.Body.Bytes(), want)
		}
	})
}
