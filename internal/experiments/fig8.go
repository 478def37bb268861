package experiments

import (
	"fmt"
	"strings"
	"time"

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
	// CycleLength for the live runs (default 15 ms; the deployed prototype
	// used 30 s — only the ratio to delivery latency matters).
	CycleLength time.Duration
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
	return c
}

// Fig8 runs the deployment comparison.
func Fig8(o Options, cfg Fig8Config) Fig8Result {
	o = o.WithDefaults()
	cfg = cfg.withDefaults()
	ds := deploymentSurvey(o, cfg.Cycles)

	grid := make([]cell, len(cfg.Fanouts))
	for i, f := range cfg.Fanouts {
		grid[i] = at(ds, WhatsUp, f)
		grid[i].Cycles = cfg.Cycles
	}
	pts := sweep(o, grid, func(c cell, out Outcome) Fig8Point {
		pt := Fig8Point{Fanout: c.Fanout, Simulation: out.Col.F1()}
		pt.BEEPKbps = metrics.KbpsPerNode(out.Col.Bytes(metrics.MsgBeep), cfg.Cycles, deploymentCycleSeconds, ds.Users)
		pt.WUPKbps = metrics.KbpsPerNode(out.Col.GossipBytes(), cfg.Cycles, deploymentCycleSeconds, ds.Users)
		pt.TotalKbps = pt.BEEPKbps + pt.WUPKbps
		return pt
	})
	if cfg.SkipLive {
		return Fig8Result{Users: ds.Users, Points: pts}
	}
	// Live runs are wall-clock bound: one fleet at a time, so the goroutine
	// fleets do not distort each other's timing. The TCP fleet shares one
	// machine, so it gets a slower clock than the in-memory emulation;
	// congestion then comes from the bounded queues of the overloaded
	// quarter of the fleet rather than from the test host's own CPU.
	for i := range pts {
		live := LiveRunConfig{Transport: "channel", Cycles: cfg.Cycles, CycleLength: cfg.CycleLength, Fanout: pts[i].Fanout}
		pts[i].ModelNet = must(LiveRun(o, live)).F1
		live.Transport, live.CycleLength = "tcp", 2*cfg.CycleLength
		pts[i].PlanetLab = must(LiveRun(o, live)).F1
	}
	return Fig8Result{Users: ds.Users, Points: pts}
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
