// Command whatsup-node runs a fleet of WhatsUp nodes over real TCP loopback
// sockets — the deployment configuration of the paper's PlanetLab experiment
// on a single machine. Every node is a goroutine with its own listener;
// gossip and news travel as length-prefixed binary frames (see the README's
// "Wire protocol & live transports" section), and a configurable fraction
// of nodes is "overloaded" with tiny inbound queues.
//
// Usage:
//
//	whatsup-node -nodes 120 -cycles 60 -cycle-length 100ms -fanout 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/live"
	"whatsup/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with explicit arguments and streams so tests can
// drive the full main path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whatsup-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes       = fs.Int("nodes", 120, "fleet size (scales the survey workload)")
		cycles      = fs.Int("cycles", 60, "gossip cycles to run")
		cycleLength = fs.Duration("cycle-length", 100*time.Millisecond, "gossip period (the prototype used 30s)")
		fanout      = fs.Int("fanout", 8, "fLIKE")
		seed        = fs.Int64("seed", 1, "seed")
		slowEvery   = fs.Int("slow-every", 4, "every n-th node is overloaded (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Size the survey workload to the requested fleet (480 users at scale 1).
	scale := float64(*nodes) / 480
	ds := dataset.Survey(dataset.SurveyConfig{Seed: *seed, Scale: scale, Cycles: *cycles})
	fmt.Fprintf(stdout, "whatsup-node: %d TCP nodes, %d cycles of %v, fLIKE=%d\n",
		ds.Users, *cycles, *cycleLength, *fanout)

	start := time.Now()
	runner := live.NewRunner(live.Config{
		Seed:        *seed,
		Cycles:      *cycles,
		CycleLength: *cycleLength,
		NodeConfig:  core.Config{FLike: *fanout},
	}, ds, live.NewTCPNet(live.TCPNetConfig{SlowEvery: *slowEvery}))
	runner.Run()

	col := runner.Collector()
	q := col.Quality()
	fmt.Fprintf(stdout, "finished in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "  precision %.3f  recall %.3f  f1 %.3f\n", q.Precision, q.Recall, q.F1)
	fmt.Fprintf(stdout, "  messages: beep=%d gossip=%d total=%d\n",
		col.Messages(metrics.MsgBeep), col.GossipMessages(), q.Messages)
	fmt.Fprintf(stdout, "  bytes: beep=%d gossip=%d\n", col.Bytes(metrics.MsgBeep), col.GossipBytes())
	return 0
}
