// Package api exposes a running live fleet as a JSON HTTP service — the
// "client interface" of the paper's prototype, where real users read their
// feed and rated what they read. It is a thin translation layer: every
// request maps onto the live runtime's serving surface (which serializes
// node access under each node's lock) or the ingestion catalog, so the
// package holds no state and no locks of its own.
//
// Routes (all JSON):
//
//	GET  /healthz                  liveness probe
//	GET  /v1/nodes                 fleet members and lifecycle states
//	GET  /v1/nodes/{id}            one node's protocol snapshot
//	GET  /v1/nodes/{id}/feed       the node's ranked recommendations
//	POST /v1/nodes/{id}/feedback   {"item":"<16-hex id>","liked":bool}
//	GET  /v1/items/{id}            an ingested item's catalog record
//	GET  /v1/stats                 fleet metrics roll-up
package api

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"whatsup/internal/live"
	"whatsup/internal/news"
	"whatsup/internal/source"
)

// Fleet is the slice of the live runtime the API serves from; *live.Runner
// implements it. Tests substitute stubs.
type Fleet interface {
	Feed(id news.NodeID) ([]live.FeedEntry, error)
	Feedback(id news.NodeID, item news.ID, liked bool) error
	Snapshot(id news.NodeID) (live.NodeSnapshot, error)
	Members() []live.Member
	Stats() live.FleetStats
}

// Items resolves item ids to their ingestion records; *source.Catalog
// implements it. A nil Items serves 404 for every /v1/items lookup.
type Items interface {
	Get(id news.ID) (source.CatalogEntry, bool)
	Len() int
}

// Server is the HTTP handler. Construct with NewServer and mount anywhere
// (it implements http.Handler at its root).
type Server struct {
	fleet Fleet
	items Items
}

// NewServer builds the API over a fleet and an optional item catalog.
func NewServer(fleet Fleet, items Items) *Server {
	return &Server{fleet: fleet, items: items}
}

// maxBodyBytes bounds request bodies; feedback payloads are tiny.
const maxBodyBytes = 1 << 16

// Wire shapes. Item ids travel as the canonical 16-hex-digit string
// (news.ID.String()): they are 64-bit hashes, and JSON numbers lose
// precision past 2^53.

type errorJSON struct {
	Error string `json:"error"`
}

type itemJSON struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	Description string `json:"description,omitempty"`
	Link        string `json:"link,omitempty"`
	Created     int64  `json:"created"`
	Source      int32  `json:"source"`
}

func toItemJSON(it news.Item) itemJSON {
	return itemJSON{
		ID:          it.ID.String(),
		Title:       it.Title,
		Description: it.Description,
		Link:        it.Link,
		Created:     it.Created,
		Source:      int32(it.Source),
	}
}

type memberJSON struct {
	ID    int32  `json:"id"`
	State string `json:"state"`
}

type membersJSON struct {
	Members []memberJSON `json:"members"`
}

type snapshotJSON struct {
	ID          int32   `json:"id"`
	State       string  `json:"state"`
	Cycle       int64   `json:"cycle"`
	ProfileSize int     `json:"profile_size"`
	RPSView     []int32 `json:"rps_view"`
	WUPView     []int32 `json:"wup_view"`
	FeedSize    int     `json:"feed_size"`
}

type feedbackJSON struct {
	Item  string `json:"item"`
	Liked *bool  `json:"liked"`
}

type feedbackAckJSON struct {
	Node  int32  `json:"node"`
	Item  string `json:"item"`
	Liked bool   `json:"liked"`
}

type catalogItemJSON struct {
	Item      itemJSON `json:"item"`
	Source    string   `json:"source"`
	FetchedAt string   `json:"fetched_at"`
}

type statsJSON struct {
	Cycle     int64   `json:"cycle"`
	Members   int     `json:"members"`
	Online    int     `json:"online"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	Messages  int64   `json:"messages"`
	Bytes     int64   `json:"bytes"`
	Catalog   *int    `json:"catalog,omitempty"`
}

// jsonContentType is the Content-Type of every response. Assigning the shared
// slice to the header map, unlike Header().Set, allocates nothing.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorJSON{Error: msg})
}

// degradedRetryAfter is the Retry-After hint sent with 503s for a degraded
// fleet: one gossip period of the paper's prototype — the soonest the mesh
// could plausibly look different.
const degradedRetryAfter = "30"

// fleetError maps serving-surface sentinels onto HTTP statuses.
func fleetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, live.ErrUnknownNode):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, live.ErrDegraded):
		w.Header().Set("Retry-After", degradedRetryAfter)
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, live.ErrNodeOffline), errors.Is(err, live.ErrNotRunning):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func parseNodeID(s string) (news.NodeID, bool) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil || v < 0 {
		return 0, false
	}
	return news.NodeID(v), true
}

func parseItemID(s string) (news.ID, bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return news.ID(v), true
}

// ServeHTTP routes by hand rather than through ServeMux patterns: ServeMux
// answers an unknown path or a wrong method itself, with a text/plain body,
// and every 4xx here carries a JSON {"error": …} body (FuzzAPI holds it to
// that). The path is walked with strings.Cut, so routing allocates nothing.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	path, ok := strings.CutPrefix(strings.Trim(r.URL.Path, "/"), "v1/")
	coll, rest, hasID := strings.Cut(path, "/")
	id, action, hasAction := strings.Cut(rest, "/")
	switch {
	case !ok || strings.Contains(action, "/"):
		writeError(w, http.StatusNotFound, "unknown path")
	case coll == "nodes" && !hasID:
		s.requireGet(w, r, s.handleNodes)
	case coll == "nodes":
		s.nodeRoute(w, r, id, action)
	case coll == "items" && hasID && !hasAction:
		s.requireGet(w, r, func(w http.ResponseWriter, r *http.Request) { s.handleItem(w, id) })
	case coll == "stats" && !hasID:
		s.requireGet(w, r, s.handleStats)
	default:
		writeError(w, http.StatusNotFound, "unknown path")
	}
}

func (s *Server) requireGet(w http.ResponseWriter, r *http.Request, h http.HandlerFunc) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	h(w, r)
}

func (s *Server) nodeRoute(w http.ResponseWriter, r *http.Request, idSeg, action string) {
	id, ok := parseNodeID(idSeg)
	if !ok {
		writeError(w, http.StatusBadRequest, "node id must be a non-negative integer")
		return
	}
	switch action {
	case "":
		s.requireGet(w, r, func(w http.ResponseWriter, r *http.Request) { s.handleSnapshot(w, id) })
	case "feed":
		s.requireGet(w, r, func(w http.ResponseWriter, r *http.Request) { s.handleFeed(w, id) })
	case "feedback":
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		s.handleFeedback(w, r, id)
	default:
		writeError(w, http.StatusNotFound, "unknown path")
	}
}

func (s *Server) handleNodes(w http.ResponseWriter, _ *http.Request) {
	members := s.fleet.Members()
	out := membersJSON{Members: make([]memberJSON, 0, len(members))}
	for _, m := range members {
		out.Members = append(out.Members, memberJSON{ID: int32(m.ID), State: m.State.String()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, id news.NodeID) {
	snap, err := s.fleet.Snapshot(id)
	if err != nil {
		fleetError(w, err)
		return
	}
	out := snapshotJSON{
		ID:          int32(snap.ID),
		State:       snap.State.String(),
		Cycle:       snap.Cycle,
		ProfileSize: snap.ProfileSize,
		RPSView:     make([]int32, 0, len(snap.RPSView)),
		WUPView:     make([]int32, 0, len(snap.WUPView)),
		FeedSize:    snap.FeedSize,
	}
	for _, d := range snap.RPSView {
		out.RPSView = append(out.RPSView, int32(d.Node))
	}
	for _, d := range snap.WUPView {
		out.WUPView = append(out.WUPView, int32(d.Node))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFeed(w http.ResponseWriter, id news.NodeID) {
	entries, err := s.fleet.Feed(id)
	if err != nil {
		fleetError(w, err)
		return
	}
	bp := feedBufs.Get().(*[]byte)
	b, ok := appendFeed((*bp)[:0], id, entries)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if ok {
		w.Write(b)
	}
	*bp = b
	feedBufs.Put(bp)
}

// feedBufs holds the buffers feed responses are encoded into. A buffer goes
// back whatever it grew to, as encoding/json's own buffers do: a feed's body
// is bounded by the feed's capacity and the catalog's field limits, and a
// capped pool would build every body past the cap from scratch.
var feedBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// appendFeed appends the feed response body — byte for byte what
// json.Encoder writes for the feed (FuzzFeedJSON holds it to that) — without
// allocating. It reports false for a feed with a non-finite score, which
// encoding/json refuses to encode.
func appendFeed(b []byte, node news.NodeID, entries []live.FeedEntry) ([]byte, bool) {
	b = append(b, `{"node":`...)
	b = strconv.AppendInt(b, int64(node), 10)
	b = append(b, `,"entries":[`...)
	for i := range entries {
		e, it := &entries[i], &entries[i].Item
		if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"item":{"id":"`...)
		for shift := 60; shift >= 0; shift -= 4 {
			b = append(b, hexDigits[it.ID>>shift&0xf])
		}
		b = append(b, `","title":`...)
		b = appendString(b, it.Title)
		if it.Description != "" {
			b = append(b, `,"description":`...)
			b = appendString(b, it.Description)
		}
		if it.Link != "" {
			b = append(b, `,"link":`...)
			b = appendString(b, it.Link)
		}
		b = append(b, `,"created":`...)
		b = strconv.AppendInt(b, it.Created, 10)
		b = append(b, `,"source":`...)
		b = strconv.AppendInt(b, int64(it.Source), 10)
		b = append(b, `},"score":`...)
		b = appendFloat(b, e.Score)
		b = append(b, `,"rated":`...)
		b = strconv.AppendBool(b, e.Rated)
		b = append(b, `,"liked":`...)
		b = strconv.AppendBool(b, e.Liked)
		b = append(b, `,"cycle":`...)
		b = strconv.AppendInt(b, e.Cycle, 10)
		b = append(b, `,"hops":`...)
		b = strconv.AppendInt(b, int64(e.Hops), 10)
		b = append(b, `,"via_dislike":`...)
		b = strconv.AppendBool(b, e.ViaDislike)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), true
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped the way encoding/json
// escapes it: the HTML-sensitive <, > and &, control bytes, U+2028 and
// U+2029 as \u escapes, and each invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and from
// 1e21 up, with a one-digit negative exponent unpadded (e-9, not e-09).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request, id news.NodeID) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var req feedbackJSON
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	itemID, ok := parseItemID(req.Item)
	if !ok {
		writeError(w, http.StatusBadRequest, `"item" must be the 16-hex-digit item id`)
		return
	}
	if req.Liked == nil {
		writeError(w, http.StatusBadRequest, `"liked" must be true or false`)
		return
	}
	if err := s.fleet.Feedback(id, itemID, *req.Liked); err != nil {
		fleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, feedbackAckJSON{Node: int32(id), Item: itemID.String(), Liked: *req.Liked})
}

func (s *Server) handleItem(w http.ResponseWriter, idSeg string) {
	id, ok := parseItemID(idSeg)
	if !ok {
		writeError(w, http.StatusBadRequest, "item id must be 16 hex digits")
		return
	}
	if s.items == nil {
		writeError(w, http.StatusNotFound, "no item catalog configured")
		return
	}
	e, ok := s.items.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown item")
		return
	}
	writeJSON(w, http.StatusOK, catalogItemJSON{
		Item:      toItemJSON(e.Item),
		Source:    e.SourceName,
		FetchedAt: e.FetchedAt.UTC().Format("2006-01-02T15:04:05.000Z"),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.fleet.Stats()
	out := statsJSON{
		Cycle:     st.Cycle,
		Members:   st.Members,
		Online:    st.Online,
		Precision: st.Precision,
		Recall:    st.Recall,
		F1:        st.F1,
		Messages:  st.Messages,
		Bytes:     st.Bytes,
	}
	if s.items != nil {
		n := s.items.Len()
		out.Catalog = &n
	}
	writeJSON(w, http.StatusOK, out)
}
