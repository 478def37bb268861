package source

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"whatsup/internal/news"
)

// Parsing limits. Feeds are fetched from the open internet, so the parser
// bounds everything a hostile document controls: the decoder only ever sees
// maxFeedBytes, at most maxFeedItems items survive, and each text field is
// truncated to maxFieldBytes before hashing.
const (
	maxFeedBytes  = 8 << 20
	maxFeedItems  = 512
	maxFieldBytes = 4096
)

// feedDoc is the union of the feed shapes ParseFeed accepts: RSS 2.0
// (<rss><channel><item>), RSS 1.0/RDF (<rdf:RDF><item>) and Atom
// (<feed><entry>). The root element name is deliberately unconstrained.
type feedDoc struct {
	Channel struct {
		Items []feedItem `xml:"item"`
	} `xml:"channel"`
	Items   []feedItem  `xml:"item"` // RSS 1.0 puts items at the root
	Entries []atomEntry `xml:"entry"`
}

type feedItem struct {
	Title       string `xml:"title"`
	Description string `xml:"description"`
	Link        string `xml:"link"`
	PubDate     string `xml:"pubDate"`
	Date        string `xml:"date"` // RSS 1.0 dc:date
}

type atomEntry struct {
	Title     string     `xml:"title"`
	Summary   string     `xml:"summary"`
	Content   string     `xml:"content"`
	Links     []atomLink `xml:"link"`
	Published string     `xml:"published"`
	Updated   string     `xml:"updated"`
}

type atomLink struct {
	Rel  string `xml:"rel,attr"`
	Href string `xml:"href,attr"`
}

// ParseFeed parses an RSS 2.0, RSS 1.0 or Atom document into news items.
// Identity is the content hash of (title, description, link), exactly as the
// mesh computes it, so refetching an unchanged article yields the same
// news.ID and deduplicates naturally. Created carries the article's
// publication time in unix milliseconds when the feed provides one (zero
// otherwise) — publishing into the mesh restamps it with gossip time anyway.
// Source is news.NoNode until a publisher adopts the item. Entries with
// neither title nor link are dropped; at most maxFeedItems survive.
func ParseFeed(data []byte) ([]news.Item, error) {
	if len(data) > maxFeedBytes {
		data = data[:maxFeedBytes]
	}
	var doc feedDoc
	dec := xml.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("source: parsing feed: %w", err)
	}
	items := doc.Channel.Items
	items = append(items, doc.Items...)
	out := make([]news.Item, 0, len(items)+len(doc.Entries))
	add := func(title, desc, link string, created int64) {
		title, desc, link = cleanField(title), cleanField(desc), cleanField(link)
		if title == "" && link == "" {
			return
		}
		it := news.New(title, desc, link, created, news.NoNode)
		out = append(out, it)
	}
	for _, ri := range items {
		if len(out) == maxFeedItems {
			break
		}
		when := ri.PubDate
		if when == "" {
			when = ri.Date
		}
		add(ri.Title, ri.Description, ri.Link, parseFeedTime(when))
	}
	for _, e := range doc.Entries {
		if len(out) == maxFeedItems {
			break
		}
		desc := e.Summary
		if desc == "" {
			desc = e.Content
		}
		when := e.Published
		if when == "" {
			when = e.Updated
		}
		add(e.Title, desc, atomHref(e.Links), parseFeedTime(when))
	}
	return out, nil
}

// cleanField trims whitespace and truncates to maxFieldBytes on a rune
// boundary, so hostile megabyte-sized fields cannot bloat the mesh.
func cleanField(s string) string {
	s = strings.TrimSpace(s)
	if len(s) <= maxFieldBytes {
		return s
	}
	s = s[:maxFieldBytes]
	// The cut may have split a multi-byte rune; repair only the boundary.
	// Invalid bytes deeper in the field pass through untouched, consistent
	// with fields under the cap, which are never re-validated. Back up to
	// the last rune start within one rune's width of the end; keep the tail
	// only if it decodes as one complete rune.
	start := len(s)
	for start > 0 && len(s)-start < utf8.UTFMax && !utf8.RuneStart(s[start-1]) {
		start--
	}
	if start > 0 {
		start--
		r, size := utf8.DecodeRuneInString(s[start:])
		if size == len(s)-start && (r != utf8.RuneError || size > 1) {
			return s
		}
	}
	return s[:start]
}

// atomHref picks the entry's alternate link (or the first link at all).
func atomHref(links []atomLink) string {
	for _, l := range links {
		if l.Rel == "" || l.Rel == "alternate" {
			return l.Href
		}
	}
	if len(links) > 0 {
		return links[0].Href
	}
	return ""
}

// feedTimeFormats are the publication-time layouts seen in the wild, RSS's
// RFC 822 family first, then Atom's RFC 3339.
var feedTimeFormats = []string{
	time.RFC1123Z,
	time.RFC1123,
	time.RFC822Z,
	time.RFC822,
	time.RFC3339,
	"2006-01-02T15:04:05Z0700",
	"2006-01-02",
}

// parseFeedTime parses a feed timestamp to unix milliseconds, zero when
// absent or unparseable (feeds get timing wrong constantly; a missing stamp
// must not drop the article).
func parseFeedTime(s string) int64 {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0
	}
	for _, layout := range feedTimeFormats {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UnixMilli()
		}
	}
	return 0
}

// Feed is the RSS/Atom Source: it fetches a URL over HTTP and parses the
// response with ParseFeed. Spec form: "rss:https://example.org/feed.xml".
// Successive fetches are conditional: the feed remembers the last ETag and
// Last-Modified validators and a 304 Not Modified answer yields no items and
// no error, so an idle feed costs one round-trip and no body.
type Feed struct {
	url    string
	client *http.Client

	mu           sync.Mutex
	etag         string
	lastModified string
}

// NewFeed builds an HTTP feed source. The default client enforces a 30 s
// end-to-end timeout; override it with SetClient (tests point it at an
// httptest server's client).
func NewFeed(url string) *Feed {
	return &Feed{url: url, client: &http.Client{Timeout: 30 * time.Second}}
}

// SetClient replaces the HTTP client. Call before the gateway starts.
func (f *Feed) SetClient(c *http.Client) { f.client = c }

// Name implements Source.
func (f *Feed) Name() string { return "rss:" + f.url }

// Fetch implements Source: one conditional GET of the feed URL, body capped
// at maxFeedBytes, non-2xx statuses are errors. A 304 against the cached
// validators returns (nil, nil) — nothing new, nothing wrong.
func (f *Feed) Fetch(ctx context.Context) ([]news.Item, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url, nil)
	if err != nil {
		return nil, fmt.Errorf("source: %s: %w", f.Name(), err)
	}
	req.Header.Set("User-Agent", "whatsup-gateway/1.0")
	f.mu.Lock()
	if f.etag != "" {
		req.Header.Set("If-None-Match", f.etag)
	}
	if f.lastModified != "" {
		req.Header.Set("If-Modified-Since", f.lastModified)
	}
	f.mu.Unlock()
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("source: %s: %w", f.Name(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return nil, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("source: %s: unexpected status %s", f.Name(), resp.Status)
	}
	// Adopt the response's validators wholesale: a 200 without them clears
	// the cache, so we never send validators the server no longer honors.
	f.mu.Lock()
	f.etag = resp.Header.Get("ETag")
	f.lastModified = resp.Header.Get("Last-Modified")
	f.mu.Unlock()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFeedBytes))
	if err != nil {
		return nil, fmt.Errorf("source: %s: reading body: %w", f.Name(), err)
	}
	return ParseFeed(data)
}

// File is the fixture Source: a feed document on disk, for deterministic
// tests and network-free soak runs. Spec form: "file:testdata/feed.xml".
type File struct {
	path string
}

// NewFile builds a fixture source over the given path.
func NewFile(path string) *File { return &File{path: path} }

// Name implements Source.
func (f *File) Name() string { return "file:" + f.path }

// Fetch implements Source by parsing the file's current content, so a test
// (or an operator) can append articles to the fixture mid-run and see them
// ingested on the next poll.
func (f *File) Fetch(ctx context.Context) ([]news.Item, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(f.path)
	if err != nil {
		return nil, fmt.Errorf("source: %s: %w", f.Name(), err)
	}
	return ParseFeed(data)
}
