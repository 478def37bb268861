// Serve: the WhatsUp serving stack end to end on one machine — a live
// gossip fleet with no trace workload, an ingestion gateway reading the
// repository's fixture RSS feed (pass -source rss:URL for a real one), and
// the JSON HTTP API. The example ingests the feed, waits for BEEP to
// disseminate it, prints one user's ranked feed, posts a dislike on the top
// item over HTTP and prints the reranked feed, then shuts down. Run it from
// the repository root:
//
//	go run ./examples/serve
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"whatsup"
)

func main() {
	spec := flag.String("source", "file:internal/source/testdata/feed.xml",
		"news source as kind:argument (rss:URL, file:PATH)")
	flag.Parse()

	const users = 20
	const reader = 5

	// A serving fleet has no trace: items arrive from the source while it
	// runs. Opinions supplies the population's tastes for those unseen
	// items — here node n likes about two thirds of all items, so every
	// item finds an interested audience and BEEP has dissent to dampen.
	runner := whatsup.NewLiveRunner(whatsup.LiveRunnerConfig{
		Seed:        1,
		Cycles:      -1, // serve until cancelled
		CycleLength: 10 * time.Millisecond,
		// The example runs at 10 ms cycles, so keep profile entries alive
		// well past the demo's wall-clock (the paper's window is cycles, not
		// seconds).
		NodeConfig:   whatsup.Config{ProfileWindow: 1 << 20},
		FeedCapacity: 32,
		Opinions: whatsup.OpinionFunc(func(n whatsup.NodeID, id whatsup.ItemID) bool {
			return (uint64(n)+uint64(id))%3 != 0
		}),
	}, whatsup.BlankDataset(users), whatsup.NewChannelNet(0, 0))

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

	src, err := whatsup.NewSource(*spec)
	if err != nil {
		log.Fatal(err)
	}
	gw := whatsup.NewGateway(whatsup.GatewayConfig{Node: 0, Sources: []whatsup.Source{src}}, runner)
	srv := httptest.NewServer(whatsup.NewAPIServer(runner, gw.Catalog()))
	defer srv.Close()
	fmt.Printf("API serving on %s (try: curl %s/v1/nodes/%d/feed)\n", srv.URL, srv.URL, reader)

	// Ingest, then wait for the epidemic to reach the reader.
	deadline := time.Now().Add(30 * time.Second)
	for gw.Published() == 0 {
		if _, err := gw.PollOnce(ctx); err != nil {
			log.Printf("poll: %v (will retry)", err)
		}
		if time.Now().After(deadline) {
			log.Fatal("source never yielded an item")
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("gateway ingested %d items from %s\n", gw.Published(), src.Name())

	feed := waitForFeed(srv.URL, reader, deadline)
	fmt.Printf("\nnode %d's feed (%d entries):\n", reader, len(feed.Entries))
	printFeed(feed)

	// Dislike the top item over the API; feedback applies synchronously
	// under the node's lock, so the next read shows the rerank.
	top := feed.Entries[0]
	body := fmt.Sprintf(`{"item":%q,"liked":false}`, top.Item.ID)
	resp, err := http.Post(fmt.Sprintf("%s/v1/nodes/%d/feedback", srv.URL, reader),
		"application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nposted dislike on %q (status %d); reranked feed:\n", top.Item.Title, resp.StatusCode)
	printFeed(getFeed(srv.URL, reader))
}

// feedDoc mirrors the API's feed response shape.
type feedDoc struct {
	Entries []struct {
		Item struct {
			ID    string `json:"id"`
			Title string `json:"title"`
		} `json:"item"`
		Score float64 `json:"score"`
		Liked bool    `json:"liked"`
		Hops  int     `json:"hops"`
	} `json:"entries"`
}

func getFeed(base string, node int) feedDoc {
	resp, err := http.Get(fmt.Sprintf("%s/v1/nodes/%d/feed", base, node))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out feedDoc
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	return out
}

func waitForFeed(base string, node int, deadline time.Time) feedDoc {
	for {
		if feed := getFeed(base, node); len(feed.Entries) > 0 {
			return feed
		}
		if time.Now().After(deadline) {
			log.Fatal("dissemination never reached the reader")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func printFeed(feed feedDoc) {
	for i, e := range feed.Entries {
		mark := "dislike"
		if e.Liked {
			mark = "like"
		}
		fmt.Printf("  %2d. score %+.3f  [%s, %d hops]  %s\n", i+1, e.Score, mark, e.Hops, e.Item.Title)
	}
}
