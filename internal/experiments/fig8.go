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

// fig8Shape sizes the deployment experiment; the tests run smaller shapes
// than Fig8's.
type fig8Shape struct {
	fanouts     []int
	cycles      int           // per run
	cycleLength time.Duration // of the live runs
}

// Fig8 runs the deployment comparison at the exhibit's shape: the paper's
// fanouts {2,3,4,6,8,10,12}, a 40-cycle trace (shorter, as in Section V-D)
// and 15 ms live cycles (the deployed prototype used 30 s; only the ratio to
// delivery latency matters). skipLive zeroes the live measurements and runs
// only the simulation series.
func Fig8(o Options, skipLive bool) Fig8Result {
	return fig8(o, fig8Shape{fanouts: []int{2, 3, 4, 6, 8, 10, 12}, cycles: 40, cycleLength: 15 * time.Millisecond}, skipLive)
}

func fig8(o Options, shape fig8Shape, skipLive bool) Fig8Result {
	o = o.WithDefaults()
	ds := deploymentSurvey(o, shape.cycles)

	grid := make([]cell, len(shape.fanouts))
	for i, f := range shape.fanouts {
		grid[i] = at(ds, WhatsUp, f)
		grid[i].Cycles = shape.cycles
	}
	pts := sweep(o, grid, func(c cell, out Outcome) Fig8Point {
		pt := Fig8Point{Fanout: c.Fanout, Simulation: out.Col.F1()}
		pt.BEEPKbps = metrics.KbpsPerNode(out.Col.Bytes(metrics.MsgBeep), shape.cycles, deploymentCycleSeconds, ds.Users)
		pt.WUPKbps = metrics.KbpsPerNode(out.Col.GossipBytes(), shape.cycles, deploymentCycleSeconds, ds.Users)
		pt.TotalKbps = pt.BEEPKbps + pt.WUPKbps
		return pt
	})
	if skipLive {
		return Fig8Result{Users: ds.Users, Points: pts}
	}
	// Live runs are wall-clock bound: one fleet at a time, so the goroutine
	// fleets do not distort each other's timing. The TCP fleet shares one
	// machine, so it gets a slower clock than the in-memory emulation;
	// congestion then comes from the bounded queues of the overloaded
	// quarter of the fleet rather than from the test host's own CPU.
	for i := range pts {
		live := LiveRunConfig{Transport: "channel", Cycles: shape.cycles, CycleLength: shape.cycleLength, Fanout: pts[i].Fanout}
		pts[i].ModelNet = must(LiveRun(o, live)).F1
		live.Transport, live.CycleLength = "tcp", 2*shape.cycleLength
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
