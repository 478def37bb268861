// Command whatsup-serve runs WhatsUp as a deployable news service: a live
// gossip fleet fed by real (RSS/Atom) or fixture news sources through the
// ingestion gateway, with the JSON HTTP API serving per-node feeds, feedback
// and fleet stats — the shape of the paper's PlanetLab prototype, on one
// machine.
//
// A soak run against a real feed:
//
//	whatsup-serve -nodes 50 -source rss:https://example.org/feed.xml \
//	    -cycle-length 1s -poll 30s -listen :8080
//
// A network-free smoke run from the test fixture, ten cycles and out:
//
//	whatsup-serve -nodes 20 -source file:internal/source/testdata/feed.xml \
//	    -cycles 10 -cycle-length 100ms -poll 200ms
//
// With a negative -cycles (the default) the fleet runs until SIGINT/SIGTERM;
// shutdown drains the HTTP server, stops the gateway and stops the fleet.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"whatsup/internal/api"
	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/live"
	"whatsup/internal/news"
	"whatsup/internal/source"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// sourceSpecs collects repeated -source flags.
type sourceSpecs []string

func (s *sourceSpecs) String() string { return strings.Join(*s, ",") }

func (s *sourceSpecs) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// onReady, when set (by tests), observes the API base URL once the listener
// is accepting connections.
var onReady func(baseURL string)

// run executes the command with explicit context, arguments and streams so
// tests can drive the full main path — including shutdown — in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whatsup-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var specs sourceSpecs
	fs.Var(&specs, "source", "news source as kind:argument (rss:URL, file:PATH); repeatable")
	var (
		listen      = fs.String("listen", ":8080", "HTTP listen address")
		nodes       = fs.Int("nodes", 20, "fleet size")
		cycles      = fs.Int("cycles", -1, "gossip cycles to run; negative = serve until interrupted")
		cycleLength = fs.Duration("cycle-length", time.Second, "gossip period (the prototype used 30s)")
		seed        = fs.Int64("seed", 1, "seed")
		poll        = fs.Duration("poll", 30*time.Second, "source poll interval")
		gatewayNode = fs.Int("gateway-node", 0, "fleet node the gateway publishes through")
		feedCap     = fs.Int("feed-capacity", 64, "per-node feed retention (deliveries)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *nodes <= 0 || *gatewayNode < 0 || *gatewayNode >= *nodes {
		fmt.Fprintln(stderr, "whatsup-serve: -gateway-node must name a node in [0, -nodes)")
		return 2
	}

	sources := make([]source.Source, 0, len(specs))
	for _, spec := range specs {
		src, err := source.New(spec)
		if err != nil {
			fmt.Fprintf(stderr, "whatsup-serve: %v\n", err)
			return 2
		}
		sources = append(sources, src)
	}

	// The fleet has no trace workload — its items arrive from the sources.
	// Interests over those unknown-in-advance items come from a deterministic
	// hash: each (node, item) pair likes with probability likePercent,
	// giving BEEP's amplification a population of interested nodes while
	// still exercising the dislike path. Live feedback overrides this
	// per user, per item.
	const likePercent = 60
	opinions := core.OpinionFunc(func(n news.NodeID, id news.ID) bool {
		h := uint64(id)*0x9E3779B97F4A7C15 ^ uint64(uint32(n))*0xBF58476D1CE4E5B9
		h ^= h >> 33
		return h%100 < likePercent
	})

	runner := live.NewRunner(live.Config{
		Seed:         *seed,
		Cycles:       *cycles,
		CycleLength:  *cycleLength,
		Opinions:     opinions,
		FeedCapacity: *feedCap,
	}, dataset.Blank(*nodes, 0), live.NewChannelNet(*seed, 0, 0))

	gw := source.NewGateway(source.GatewayConfig{
		Node:     news.NodeID(*gatewayNode),
		Sources:  sources,
		Interval: *poll,
		OnError:  func(err error) { fmt.Fprintf(stderr, "whatsup-serve: gateway: %v\n", err) },
	}, runner)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "whatsup-serve: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{
		Handler: api.NewServer(runner, gw.Catalog()),
		// The API faces the open network in a soak run: bound how long a
		// client may dribble headers (slowloris) and how long one response
		// may occupy a connection. Every payload is a small JSON document,
		// so generous caps only cut off pathological peers.
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      30 * time.Second,
	}

	fmt.Fprintf(stdout, "whatsup-serve: %d nodes, gossip every %v, %d source(s), API on http://%s\n",
		*nodes, *cycleLength, len(sources), ln.Addr())

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	gwDone := make(chan struct{})
	go func() {
		defer close(gwDone)
		if len(sources) > 0 {
			gw.Run(runCtx)
		}
	}()
	if onReady != nil {
		onReady("http://" + ln.Addr().String())
	}

	// The fleet runs in the foreground: a bounded -cycles run ends on its
	// own, an unbounded one ends when the context is cancelled (SIGINT).
	start := time.Now()
	runner.RunContext(runCtx)
	cancel()
	<-gwDone
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutdownCancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "whatsup-serve: http shutdown: %v\n", err)
	}
	<-serveErr

	st := runner.Stats()
	fmt.Fprintf(stdout, "stopped after %v at cycle %d\n", time.Since(start).Round(time.Millisecond), st.Cycle)
	fmt.Fprintf(stdout, "  ingested %d items, %d/%d nodes online\n", gw.Published(), st.Online, st.Members)
	fmt.Fprintf(stdout, "  messages %d, bytes %d\n", st.Messages, st.Bytes)
	return 0
}
