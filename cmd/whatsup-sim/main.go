// Command whatsup-sim runs a single deterministic simulation point: one
// algorithm on one workload at one fanout, and prints the user and system
// metrics. With -churn or -flash-crowd it runs the dynamic-membership
// scenario instead: a churning population with per-cohort quality metrics
// and view self-healing statistics. With -live the same churn flags drive
// the concurrent live runtime (goroutine-per-node over a real transport)
// instead of the deterministic simulator.
//
// Usage:
//
//	whatsup-sim -dataset survey -alg whatsup -fanout 10 -scale 0.5
//	whatsup-sim -dataset digg -alg cf-cos -fanout 25 -loss 0.2
//	whatsup-sim -dataset synthetic -workers 8 -scale 1
//	whatsup-sim -dataset survey -churn 0.2 -flash-crowd 50 -descriptor-ttl 15
//	whatsup-sim -live -live-transport channel -churn 0.2 -flash-crowd 20
//	whatsup-sim -live -live-transport tcp -scale 0.25 -fanout 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"whatsup/internal/core"
	"whatsup/internal/experiments"
	"whatsup/internal/metrics"
	"whatsup/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with explicit arguments and streams so tests can
// drive the full main path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whatsup-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName  = fs.String("dataset", "survey", "workload: synthetic, digg, survey")
		alg     = fs.String("alg", "whatsup", "algorithm: whatsup, whatsup-cos, cf-wup, cf-cos, gossip")
		fanout  = fs.Int("fanout", 10, "fLIKE / k / f depending on the algorithm")
		scale   = fs.Float64("scale", 0.5, "dataset scale (1.0 = paper sizes)")
		seed    = fs.Int64("seed", 1, "seed")
		loss    = fs.Float64("loss", 0, "uniform message-loss rate")
		workers = fs.Int("workers", 0, "engine worker pool (0 = GOMAXPROCS); results are identical for any value")
		shards  = fs.Int("shards", 0, "engine routing partitions: gossip crossing one goes through the wire codec (0 = none); results are identical for any value")

		churnRate   = fs.Float64("churn", 0, "expected fraction of the population hit by a churn event over the run (enables the churn scenario)")
		flashCrowd  = fs.Int("flash-crowd", 0, "extra nodes joining as a flash crowd a third into the run (enables the churn scenario)")
		descTTL     = fs.Int64("descriptor-ttl", 0, "view eviction horizon in cycles for the churn scenario (0 = scenario default)")
		churnDepart = fs.Bool("churn-departures", false, "enable graceful-departure notices in the churn scenario")
		churnRefill = fs.Float64("churn-refill", 0, "anti-entropy view-refill watermark for the churn scenario (0 = off)")

		liveRun       = fs.Bool("live", false, "run on the concurrent live runtime (goroutine-per-node, real transports) instead of the deterministic simulator; combines with -churn/-flash-crowd")
		liveTransport = fs.String("live-transport", "channel", "live transport: channel (in-memory emulation) or tcp (loopback sockets)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *churnRate <= 0 && *flashCrowd <= 0 && (*descTTL != 0 || *churnDepart || *churnRefill != 0) {
		fmt.Fprintln(stderr, "-descriptor-ttl, -churn-departures and -churn-refill configure the churn scenario: they need -churn or -flash-crowd")
		return 2
	}
	algorithms := map[string]experiments.Algorithm{
		"whatsup":     experiments.WhatsUp,
		"whatsup-cos": experiments.WhatsUpCos,
		"cf-wup":      experiments.CFWup,
		"cf-cos":      experiments.CFCos,
		"gossip":      experiments.PlainGossip,
	}
	a, ok := algorithms[*alg]
	if !ok {
		fmt.Fprintf(stderr, "unknown algorithm %q\n", *alg)
		return 2
	}
	engineWorkers := *workers
	if engineWorkers <= 0 {
		engineWorkers = runtime.GOMAXPROCS(0) // a single point gets the machine
	}
	churn := experiments.ChurnOptions{
		ChurnRate:            *churnRate,
		FlashCrowd:           *flashCrowd,
		ChurnProtocolOptions: sim.ChurnProtocolOptions{DepartureNotices: *churnDepart, RefillWatermark: *churnRefill},
	}
	node := core.Config{FLike: *fanout, DescriptorTTL: *descTTL}

	if *liveRun {
		// The live runtime is WhatsUp-only, like the paper's deployments, and
		// runs the survey workload; churn flags feed its membership
		// controller instead of the simulator's schedule.
		if a != experiments.WhatsUp {
			fmt.Fprintf(stderr, "-live supports only -alg whatsup (got %q)\n", *alg)
			return 2
		}
		r, err := experiments.LiveRun(experiments.Options{Seed: *seed, Scale: *scale}, experiments.LiveRunConfig{
			ChurnOptions: churn,
			Transport:    *liveTransport,
			Node:         node,
			Loss:         *loss,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintln(stdout, r)
		return 0
	}

	o := experiments.Options{Seed: *seed, Scale: *scale}.WithDefaults()
	ds, err := experiments.DatasetByName(*dsName, o)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	engine := experiments.EngineOptions{Workers: engineWorkers, Shards: *shards}

	if *churnRate > 0 || *flashCrowd > 0 {
		// The churn scenario is WhatsUp-only: lifecycle cold starts need the
		// full node (Section II-D); baselines keep the static path.
		if a != experiments.WhatsUp {
			fmt.Fprintf(stderr, "-churn/-flash-crowd support only -alg whatsup (got %q)\n", *alg)
			return 2
		}
		r := experiments.ChurnRun(o, experiments.ChurnConfig{
			ChurnOptions:  churn,
			EngineOptions: engine,
			Dataset:       ds,
			Node:          node,
			Loss:          *loss,
		})
		fmt.Fprintln(stdout, r)
		return 0
	}

	out := experiments.Run(experiments.RunConfig{
		Dataset: ds, Alg: a, Fanout: *fanout, Seed: *seed, Loss: *loss,
		EngineOptions: engine,
	})
	col, q := out.Col, out.Col.Quality()
	g := out.Engine.WUPGraph()

	fmt.Fprintf(stdout, "%s on %s (users=%d items=%d cycles=%d fanout=%d loss=%.0f%% workers=%d shards=%d)\n",
		a, ds.Name, ds.Users, len(ds.Items), out.Cycles, *fanout, *loss*100, out.Engine.Workers(), out.Engine.Shards())
	fmt.Fprintf(stdout, "  precision %.3f  recall %.3f  f1 %.3f\n", q.Precision, q.Recall, q.F1)
	fmt.Fprintf(stdout, "  messages: beep=%d gossip=%d total=%d (%.1f/user)\n",
		col.Messages(metrics.MsgBeep), col.GossipMessages(), q.Messages, float64(q.Messages)/float64(ds.Users))
	fmt.Fprintf(stdout, "  overlay: lscc=%.2f clustering-coefficient=%.2f weak-components=%d\n",
		g.LargestSCCFraction(), g.ClusteringCoefficient(), g.WeakComponents())
	return 0
}
