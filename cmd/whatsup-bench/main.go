// Command whatsup-bench regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints rows mirroring the paper's; use
// -run to select experiments and -scale to trade fidelity for speed
// (1.0 = the workload sizes of Table I). Two further scenarios, churn and
// adversarial, run only when named: the membership subsystem at scale and
// the WhatsUp-vs-gossip resilience comparison. Every figure it prints is
// deterministic for a given seed; the only timing is each experiment's
// wall-clock footer. Performance is measured elsewhere (README, "Measuring").
//
// Usage:
//
//	whatsup-bench -run all -scale 0.5
//	whatsup-bench -run table3,fig4 -scale 1 -seed 7
//	whatsup-bench -run fig3 -scale 1 -workers 2 -engine-workers 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/experiments"
	"whatsup/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with explicit arguments and streams so tests can
// drive the full main path in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whatsup-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList       = fs.String("run", "all", "comma-separated experiments: table1,table2,table3,table4,table5,table6,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,ablations,live or 'all'; plus churn and adversarial (synthetic 4-community worlds, not paper exhibits: never part of 'all')")
		scale         = fs.Float64("scale", 0.5, "dataset scale (1.0 = paper sizes)")
		seed          = fs.Int64("seed", 1, "experiment seed")
		workers       = fs.Int("workers", 0, "parallel sweep points (0 = NumCPU)")
		engineWorkers = fs.Int("engine-workers", 0, "per-simulation engine worker pool (0 = serial; sweep points already run in parallel)")
		engineShards  = fs.Int("shards", 0, "engine routing partitions: gossip crossing one goes through the wire codec (0 = none); results are identical for any value")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile    = fs.String("memprofile", "", "write an allocation profile to this file at exit")
		skipLive      = fs.Bool("skip-live", false, "skip the live (ModelNet/PlanetLab) runs in fig8 and the 'live' scenario")
		transport     = fs.String("transport", "channel", "network for the 'live' scenario: channel (in-memory emulation) or tcp (loopback sockets)")
		liveChurn     = fs.Float64("live-churn", 0, "population fraction hit by churn in the 'live' scenario (crash+rejoin and graceful leaves; 0 = static fleet)")
		liveFlash     = fs.Int("live-flash-crowd", 0, "flash-crowd joiners arriving a third into the 'live' scenario")
		cyclePeers    = fs.Int("cycle-peers", 5000, "population of the 'churn' scenario")
		churnDepart   = fs.Bool("churn-departures", true, "enable graceful-departure notices in the 'churn' and 'live' scenarios")
		churnRefill   = fs.Float64("churn-refill", 0.5, "anti-entropy view-refill watermark for the 'churn' and 'live' scenarios (0 = off)")
		advPeers      = fs.Int("adversarial-peers", 600, "population of the 'adversarial' scenario")
		advCycles     = fs.Int("adversarial-cycles", 40, "cycles of the 'adversarial' scenario")
		advSpam       = fs.Float64("adversarial-spam", 0.10, "population fraction acting as spam publishers in the 'adversarial' scenario")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *transport != "channel" && *transport != "tcp" {
		fmt.Fprintf(stderr, "unknown -transport=%s (want channel or tcp)\n", *transport)
		return 2
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(*runList, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	// Both scenarios build their worlds from seed 1 whatever -seed says, so a
	// different seed would print the seed-1 report under its name.
	if *seed != 1 && (selected["churn"] || selected["adversarial"]) {
		fmt.Fprintf(stderr, "-seed %d: the churn and adversarial scenarios only run seed 1\n", *seed)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "-memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "-memprofile: %v\n", err)
			}
		}()
	}

	engine := experiments.EngineOptions{Workers: *engineWorkers, Shards: *engineShards}
	churnProto := sim.ChurnProtocolOptions{DepartureNotices: *churnDepart, RefillWatermark: *churnRefill}
	o := experiments.Options{Seed: *seed, Scale: *scale, Workers: *workers, EngineOptions: engine}
	adversarial := experiments.AdversarialConfig{
		Peers:         *advPeers,
		Cycles:        *advCycles,
		SpamFraction:  *advSpam,
		Poison:        true, // sybil mode: attackers also advertise poisoned profiles
		PartitionK:    2,    // a two-way partition opens mid-run and heals
		EngineOptions: engine,
	}
	if selected["adversarial"] {
		if err := adversarial.Validate(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	all := selected["all"]
	want := func(name string) bool { return all || selected[name] }

	fmt.Fprintf(stdout, "whatsup-bench scale=%.2f seed=%d\n\n", *scale, *seed)
	ran := 0
	runExp := func(name string, fn func() fmt.Stringer) {
		if !want(name) {
			return
		}
		ran++
		start := time.Now()
		result := fn()
		fmt.Fprintf(stdout, "%s\n  [%s in %v]\n\n", result, name, time.Since(start).Round(time.Millisecond))
	}

	runExp("table1", func() fmt.Stringer { return experiments.Table1(o) })
	runExp("table2", func() fmt.Stringer { return table2{} })
	runExp("table3", func() fmt.Stringer { return experiments.Table3(o) })
	runExp("table4", func() fmt.Stringer { return experiments.Table4(o) })
	runExp("table5", func() fmt.Stringer { return experiments.Table5(o) })
	runExp("table6", func() fmt.Stringer { return experiments.Table6(o) })
	runExp("fig3", func() fmt.Stringer {
		var b strings.Builder
		for _, name := range []string{"synthetic", "digg", "survey"} {
			b.WriteString(experiments.Fig3(name, o).String())
		}
		return stringer(b.String())
	})
	runExp("fig4", func() fmt.Stringer { return experiments.Fig4(o) })
	runExp("fig5", func() fmt.Stringer { return experiments.Fig5(o) })
	runExp("fig6", func() fmt.Stringer { return experiments.Fig6(o) })
	runExp("fig7", func() fmt.Stringer { return experiments.Fig7(o) })
	runExp("fig8", func() fmt.Stringer { return experiments.Fig8(o, *skipLive) })
	runExp("fig9", func() fmt.Stringer { return experiments.Fig9(o) })
	runExp("fig10", func() fmt.Stringer { return experiments.Fig10(o) })
	runExp("fig11", func() fmt.Stringer { return experiments.Fig11(o) })
	var liveErr error
	runExp("live", func() fmt.Stringer {
		if *skipLive {
			return stringer("Live transport run: skipped (-skip-live)")
		}
		// The channel transport emulates 2 % uniform loss; the TCP
		// stand-in takes none (its only loss is its bounded queues).
		loss := 0.0
		if *transport == "channel" {
			loss = 0.02
		}
		r, err := experiments.LiveRun(o, experiments.LiveRunConfig{
			ChurnOptions: experiments.ChurnOptions{
				ChurnRate: *liveChurn, FlashCrowd: *liveFlash, ChurnProtocolOptions: churnProto,
			},
			Transport: *transport,
			Loss:      loss,
		})
		if err != nil {
			liveErr = err
			return stringer(err.Error())
		}
		return r
	})
	runExp("ablations", func() fmt.Stringer {
		var b strings.Builder
		for _, r := range experiments.Ablations(o) {
			b.WriteString(r.String())
		}
		return stringer(b.String())
	})
	// The churn and adversarial scenarios run only when explicitly selected:
	// they are synthetic worlds, not exhibits of the paper that 'all'
	// reproduces. Churn is a 5k-peer dynamic-membership run (flash crowd +
	// crash/rejoin/leave trace with view eviction); adversarial is the
	// four-cell WhatsUp-vs-Gossip resilience comparison (clean and attacked
	// runs of each) under a hostile cohort and an optional mid-run partition.
	if selected["churn"] {
		const churnRate = 0.20 // population fraction the trace hits
		runExp("churn", func() fmt.Stringer {
			r := experiments.ChurnBench(experiments.ChurnBenchConfig{
				ChurnOptions:  experiments.ChurnOptions{ChurnRate: churnRate, ChurnProtocolOptions: churnProto},
				EngineOptions: engine,
				Peers:         *cyclePeers,
			})
			return stringer(fmt.Sprintf("churn %.0f%% departure-notices=%v refill-watermark=%.2f\n%s",
				churnRate*100, *churnDepart, *churnRefill, r))
		})
	}
	if selected["adversarial"] {
		runExp("adversarial", func() fmt.Stringer { return experiments.AdversarialRun(adversarial) })
	}

	if ran == 0 {
		fmt.Fprintf(stderr, "no experiment matched -run=%s\n", *runList)
		return 2
	}
	if liveErr != nil {
		fmt.Fprintf(stderr, "live scenario failed: %v\n", liveErr)
		return 2
	}
	return 0
}

type stringer string

func (s stringer) String() string { return string(s) }

// table2 prints the static parameter table of the paper.
type table2 struct{}

func (table2) String() string {
	cfg := core.Config{}.WithDefaults()
	return fmt.Sprintf(`Table II: WhatsUp parameters - on each node
  RPSvs           size of the random sample        %d
  RPSf            frequency of gossip in the RPS   1 cycle
  WUPvs           size of the social network       2·fLIKE = %d
  Profile window  news item TTL                    %d cycles
  BEEP TTL        dissemination TTL for dislike    %d`,
		cfg.RPSViewSize, cfg.WUPViewSize, cfg.ProfileWindow, cfg.DislikeTTL)
}
