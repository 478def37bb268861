package whatsup

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestServingFacade drives the serving section of the façade end to end: a
// blank-workload fleet under NewLiveRunner, a fixture Source through
// NewGateway, and the NewAPIServer handler over real HTTP.
func TestServingFacade(t *testing.T) {
	const users = 8
	runner := NewLiveRunner(LiveRunnerConfig{
		Seed:         7,
		Cycles:       -1, // serve until cancelled
		CycleLength:  5 * time.Millisecond,
		FeedCapacity: 16,
		Opinions:     OpinionFunc(func(NodeID, ItemID) bool { return true }),
	}, BlankDataset(users), NewChannelNet(7, 0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		runner.RunContext(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	src, err := NewSource("file:internal/source/testdata/feed.xml")
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(GatewayConfig{Node: 0, Sources: []Source{src}}, runner)
	srv := httptest.NewServer(NewAPIServer(runner, gw.Catalog()))
	defer srv.Close()

	deadline := time.Now().Add(30 * time.Second)
	for gw.Published() < 6 {
		if time.Now().After(deadline) {
			t.Fatal("gateway could not ingest the fixture feed")
		}
		if _, err := gw.PollOnce(ctx); err != nil {
			t.Logf("poll: %v (will retry)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The runner's serving surface works through the façade aliases.
	var feed []FeedEntry
	for {
		var err error
		feed, err = runner.Feed(3)
		if err != nil {
			t.Fatal(err)
		}
		if len(feed) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 3 never received a feed entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var snap NodeSnapshot
	snap, err = runner.Snapshot(3)
	if err != nil || snap.ID != 3 {
		t.Fatalf("snapshot: %+v, %v", snap, err)
	}
	var stats FleetStats = runner.Stats()
	if stats.Members != users {
		t.Fatalf("stats members %d, want %d", stats.Members, users)
	}
	var members []Member = runner.Members()
	if len(members) != users {
		t.Fatalf("members %d, want %d", len(members), users)
	}
	if _, err := runner.Feed(99); err != ErrUnknownNode {
		t.Fatalf("unknown node error: %v", err)
	}

	// And over HTTP via the façade-built handler.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Online  int  `json:"online"`
		Catalog *int `json:"catalog"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Online != users || out.Catalog == nil || *out.Catalog != 6 {
		t.Fatalf("stats over HTTP: %+v", out)
	}
}

// TestServingFacadeSpecs pins the source-spec constructors.
func TestServingFacadeSpecs(t *testing.T) {
	if _, err := NewSource("bogus:x"); err == nil {
		t.Fatal("unknown source kind must error")
	}
	src, err := NewSource("file:internal/source/testdata/feed.xml")
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "file:internal/source/testdata/feed.xml" {
		t.Fatalf("source name %q", src.Name())
	}
	if feed, err := NewSource("rss:https://example.org/feed.xml"); err != nil || feed.Name() != "rss:https://example.org/feed.xml" {
		t.Fatal("feed source name mismatch")
	}
}
