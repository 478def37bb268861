package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"whatsup/internal/live"
	"whatsup/internal/news"
	"whatsup/internal/source"
)

// outcomeFleet is a fleet whose node ids answer, by their residue mod 5,
// each way the live runtime's serving calls can: served, or one of
// ErrUnknownNode, ErrNodeOffline, ErrDegraded and ErrNotRunning.
type outcomeFleet struct{ item news.Item }

func (f outcomeFleet) outcome(id news.NodeID) error {
	return [...]error{nil, live.ErrUnknownNode, live.ErrNodeOffline, live.ErrDegraded, live.ErrNotRunning}[id%5]
}

func (f outcomeFleet) Feed(id news.NodeID) ([]live.FeedEntry, error) {
	if err := f.outcome(id); err != nil {
		return nil, err
	}
	return []live.FeedEntry{{Item: f.item, Score: 0.75, Rated: true, Cycle: 3, Hops: 2}}, nil
}

func (f outcomeFleet) Feedback(id news.NodeID, _ news.ID, _ bool) error { return f.outcome(id) }

func (f outcomeFleet) Snapshot(id news.NodeID) (live.NodeSnapshot, error) {
	return live.NodeSnapshot{ID: id, Cycle: 3, ProfileSize: 2}, f.outcome(id)
}

func (f outcomeFleet) Members() []live.Member {
	return []live.Member{{ID: 0, State: 0}, {ID: 1, State: 1}, {ID: 2, State: 2}}
}

func (f outcomeFleet) Stats() live.FleetStats {
	return live.FleetStats{Cycle: 9, Members: 3, Online: 1, Precision: 0.5, Recall: 0.25, F1: 1.0 / 3, Messages: 100, Bytes: 4096}
}

// FuzzAPI drives Server.ServeHTTP with arbitrary methods, paths, queries and
// bodies, against a fleet whose nodes answer every way the live runtime can
// and a catalog holding one item. Whatever the request, the handler must not
// panic, and must answer a 2xx with a JSON body, a 4xx with a JSON
// {"error": …} body, or a 503 naming one of the runtime's unavailability
// sentinels. A 500 — fleetError's answer to an error it does not know — on
// client input is a bug. The seed corpus is the requests of api_test.go.
func FuzzAPI(f *testing.F) {
	item := news.New("Hello", "World", "https://example.org/hello", 5, 2)
	id := item.ID.String()
	for _, seed := range []struct{ method, path, query, body string }{
		{"GET", "/healthz", "", ""},
		{"GET", "/v1/nodes", "", ""},
		{"GET", "/v1/nodes/1", "", ""},
		{"GET", "/v1/nodes/99", "", ""},
		{"GET", "/v1/nodes/not-a-number", "", ""},
		{"GET", "/v1/nodes/-3", "", ""},
		{"GET", "/v1/nodes/1/feed", "", ""},
		{"GET", "/v1/nodes/0/feed", "", ""},
		{"GET", "/v1/nodes/99/feed", "", ""},
		{"POST", "/v1/nodes/1/feedback", "", `{"item":"` + id + `","liked":false}`},
		{"POST", "/v1/nodes/1/feedback", "", `{not json`},
		{"POST", "/v1/nodes/1/feedback", "", `{"liked":true}`},
		{"POST", "/v1/nodes/1/feedback", "", `{"item":"` + id + `"}`},
		{"POST", "/v1/nodes/1/feedback", "", `{"item":"zzzz","liked":true}`},
		{"POST", "/v1/nodes/1/feedback", "", `{"item":"00112233445566778899","liked":true}`},
		{"POST", "/v1/nodes/99/feedback", "", `{"item":"` + id + `","liked":true}`},
		{"POST", "/v1/nodes/1/feed", "", "{}"},
		{"GET", "/v1/nodes/1/feedback", "", ""},
		{"GET", "/v1/items/" + id, "", ""},
		{"GET", "/v1/items/ffffffffffffffff", "", ""},
		{"GET", "/v1/items/nothex", "", ""},
		{"GET", "/v1/stats", "", ""},
		{"GET", "/", "", ""},
		{"GET", "/v2/nodes", "", ""},
		{"GET", "/v1/bogus", "", ""},
		{"GET", "/v1/nodes/1/bogus", "", ""},
		{"GET", "/v1/items", "", ""},
		{"GET", "/v1", "", ""},
	} {
		f.Add(seed.method, seed.path, seed.query, []byte(seed.body))
	}
	catalog := source.NewCatalog()
	catalog.Add(source.CatalogEntry{Item: item, SourceName: "file:testdata/feed.xml", FetchedAt: time.Unix(0, 0)})
	srv := NewServer(outcomeFleet{item: item}, catalog)
	unavailable := map[string]bool{}
	for _, err := range []error{live.ErrNodeOffline, live.ErrDegraded, live.ErrNotRunning} {
		unavailable[err.Error()] = true
	}
	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		// Set on a parsed request rather than parsed from a target: the
		// handler must cope with whatever a request's fields hold.
		r := httptest.NewRequest(http.MethodGet, "/", bytes.NewReader(body))
		r.Method, r.URL.Path, r.URL.RawQuery = method, path, query
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)

		code, out := w.Code, w.Body.Bytes()
		if code >= 200 && code < 300 {
			if !json.Valid(out) {
				t.Fatalf("%s %q: %d with a body that is not JSON: %q", method, path, code, out)
			}
			return
		}
		var e struct {
			Error *string `json:"error"`
		}
		if err := json.Unmarshal(out, &e); err != nil || e.Error == nil || *e.Error == "" {
			t.Fatalf("%s %q: %d without a JSON error body: %q", method, path, code, out)
		}
		switch {
		case code >= 400 && code < 500:
		case code == http.StatusServiceUnavailable && unavailable[*e.Error]:
		default:
			t.Fatalf("%s %q %q: status %d (%s)", method, path, body, code, *e.Error)
		}
	})
}
