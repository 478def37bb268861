package experiments

import (
	"fmt"
	"strings"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/live"
	"whatsup/internal/metrics"
)

// Fig8Point is one fanout point of the deployment comparison.
type Fig8Point struct {
	Fanout     int
	Simulation float64 // F1 in the deterministic simulator
	ModelNet   float64 // F1 on the lossy channel emulation
	PlanetLab  float64 // F1 on TCP loopback with congested nodes
	// Figure 8b: average per-node bandwidth (simulation accounting, 30 s
	// cycles as in Section V-D).
	TotalKbps float64
	WUPKbps   float64
	BEEPKbps  float64
}

// Fig8Result reproduces Figure 8: (a) F1 under simulation, ModelNet-style
// emulation and PlanetLab-style deployment; (b) bandwidth decomposition
// against fanout. The emulation should track simulation closely; the
// PlanetLab stand-in should lag at small fanouts where congestion losses
// are not yet covered by BEEP's redundancy.
type Fig8Result struct {
	Users  int
	Points []Fig8Point
}

// Fig8Config tunes the deployment experiment.
type Fig8Config struct {
	// Fanouts to sweep (default {2,3,4,6,8,10,12} as in the paper).
	Fanouts []int
	// Cycles per run (default 40, a shorter trace as in Section V-D).
	Cycles int
	// CycleLength for the live runs (default 10 ms; the deployed prototype
	// used 30 s — only the ratio to delivery latency matters).
	CycleLength time.Duration
	// EmulationLoss is the channel-network loss rate (default 2%).
	EmulationLoss float64
	// SkipLive replaces the live measurements with zeros (used by quick
	// benches that only need the simulation series).
	SkipLive bool
}

func (c Fig8Config) withDefaults() Fig8Config {
	if len(c.Fanouts) == 0 {
		c.Fanouts = []int{2, 3, 4, 6, 8, 10, 12}
	}
	if c.Cycles <= 0 {
		c.Cycles = 40
	}
	if c.CycleLength <= 0 {
		c.CycleLength = 15 * time.Millisecond
	}
	if c.EmulationLoss <= 0 {
		c.EmulationLoss = 0.02
	}
	return c
}

// Fig8 runs the deployment comparison on a 245-user survey subset (the
// paper deployed 245 users on 170 PlanetLab machines and a 25-node ModelNet
// cluster).
func Fig8(o Options, cfg Fig8Config) Fig8Result {
	o = o.WithDefaults()
	cfg = cfg.withDefaults()
	// Half-scale survey ≈ 240 users at Scale 1, matching the deployment.
	ds := dataset.Survey(dataset.SurveyConfig{Seed: o.Seed, Scale: o.Scale * 0.5, Cycles: cfg.Cycles})

	jobs := make([]func() Fig8Point, len(cfg.Fanouts))
	for i, f := range cfg.Fanouts {
		f := f
		jobs[i] = func() Fig8Point {
			pt := Fig8Point{Fanout: f}

			out := Run(RunConfig{Dataset: ds, Alg: WhatsUp, Fanout: f, Seed: o.Seed, Cycles: cfg.Cycles, EngineOptions: o.EngineOptions})
			pt.Simulation = out.Col.F1()
			const cycleSeconds = 30 // deployment gossip period (Section V-D)
			beep := out.Col.Bytes(metrics.MsgBeep)
			gossip := out.Col.GossipBytes()
			pt.BEEPKbps = metrics.KbpsPerNode(beep, cfg.Cycles, cycleSeconds, ds.Users)
			pt.WUPKbps = metrics.KbpsPerNode(gossip, cfg.Cycles, cycleSeconds, ds.Users)
			pt.TotalKbps = pt.BEEPKbps + pt.WUPKbps

			if cfg.SkipLive {
				return pt
			}
			nodeCfg := core.Config{FLike: f, ProfileWindow: core.DefaultProfileWindow}
			emu := live.NewRunner(live.Config{
				Seed: o.Seed, Cycles: cfg.Cycles, CycleLength: cfg.CycleLength, NodeConfig: nodeCfg,
			}, ds, live.NewChannelNet(o.Seed, cfg.EmulationLoss, cfg.CycleLength/10))
			emu.Run()
			pt.ModelNet = emu.Collector().F1()

			// The TCP fleet shares one machine, so give it a slower clock
			// than the in-memory emulation; congestion then comes from the
			// bounded queues of the overloaded quarter of the fleet rather
			// than from the test host's own CPU.
			plab := live.NewRunner(live.Config{
				Seed: o.Seed, Cycles: cfg.Cycles, CycleLength: 2 * cfg.CycleLength, NodeConfig: nodeCfg,
			}, ds, live.NewTCPNet(live.TCPNetConfig{SlowEvery: 4, SlowQueueCap: 96, QueueCap: 8192}))
			plab.Run()
			pt.PlanetLab = plab.Collector().F1()
			return pt
		}
	}
	// Live runs are wall-clock bound; run sweep points sequentially to keep
	// the goroutine fleets from distorting each other's timing.
	workers := 1
	if cfg.SkipLive {
		workers = o.Workers
	}
	return Fig8Result{Users: ds.Users, Points: parallel(workers, jobs)}
}

// String renders both panels of Figure 8.
func (r Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 (%d users): simulation vs emulation vs deployment; bandwidth\n", r.Users)
	b.WriteString("  fanout  F1(sim)  F1(modelnet)  F1(planetlab)  total-kbps  wup-kbps  beep-kbps\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-7d %-8.2f %-13.2f %-14.2f %-11.2f %-9.2f %.2f\n",
			p.Fanout, p.Simulation, p.ModelNet, p.PlanetLab, p.TotalKbps, p.WUPKbps, p.BEEPKbps)
	}
	return b.String()
}
