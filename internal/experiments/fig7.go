package experiments

import (
	"fmt"
	"strings"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// Fig7Curve is one metric variant's dynamics: per-cycle averages (over
// trials) of the WUP-view similarity of the reference, joining and changing
// nodes (Figures 7a/7b) and of the number of liked news items they receive
// per cycle (Figure 7c).
type Fig7Curve struct {
	Metric      string
	Cycles      []int64
	RefSim      []float64
	JoinSim     []float64
	ChangeSim   []float64
	RefLiked    []float64
	JoinLiked   []float64
	ChangeLiked []float64
	// JoinConvergence / ChangeConvergence: cycles after the event until the
	// node's view similarity first sustains ≥90% of the reference node's.
	JoinConvergence   int
	ChangeConvergence int
}

// samples lists the six per-cycle curves.
func (c *Fig7Curve) samples() []*[]float64 {
	return []*[]float64{&c.RefSim, &c.JoinSim, &c.ChangeSim, &c.RefLiked, &c.JoinLiked, &c.ChangeLiked}
}

// newFig7Curve allocates the six curves of one metric at the run length.
func newFig7Curve(metric profile.Metric, cycles int) Fig7Curve {
	c := Fig7Curve{Metric: metric.Name()}
	for _, s := range c.samples() {
		*s = make([]float64, cycles)
	}
	return c
}

// Fig7Result reproduces Figure 7: cold start and interest dynamics, for the
// WUP metric and for cosine. The WUP metric should converge several times
// faster (paper: ~20 vs >100 cycles for joining, ~40 vs >100 for changing).
type Fig7Result struct {
	EventCycle int64
	TotalCycle int64
	Trials     int
	WhatsUp    Fig7Curve
	Cosine     Fig7Curve
}

// fig7Shape sizes the dynamics experiment; the tests run smaller shapes
// than Fig7's.
type fig7Shape struct {
	trials      int   // trials to average over
	eventCycle  int64 // when the join and the interest swap happen
	totalCycles int   // the run length
	window      int64 // the profile window
}

// Fig7 runs the dynamics experiment at the exhibit's shape: 5 trials (the
// paper used 100), the event at cycle 100 of 200, and the 40-cycle profile
// window of Section V-C.
func Fig7(o Options) Fig7Result {
	return fig7(o, fig7Shape{trials: 5, eventCycle: 100, totalCycles: 200, window: 40})
}

func fig7(o Options, shape fig7Shape) Fig7Result {
	o = o.WithDefaults()
	// Both metrics' trials share one pool, one metric's after the other's.
	ms := []profile.Metric{profile.WUP{}, profile.Cosine{}}
	trials := make([]func() Fig7Curve, 0, len(ms)*shape.trials)
	for _, metric := range ms {
		for t := 0; t < shape.trials; t++ {
			seed := o.Seed + int64(t)*7919
			trials = append(trials, func() Fig7Curve { return fig7Trial(o, shape, metric, seed) })
		}
	}
	runs := parallel(o.Workers, trials)
	return Fig7Result{
		EventCycle: shape.eventCycle,
		TotalCycle: int64(shape.totalCycles),
		Trials:     shape.trials,
		WhatsUp:    fig7Mean(shape, ms[0], runs[:shape.trials]),
		Cosine:     fig7Mean(shape, ms[1], runs[shape.trials:]),
	}
}

// fig7Mean averages one metric's trials.
func fig7Mean(shape fig7Shape, metric profile.Metric, trials []Fig7Curve) Fig7Curve {
	acc := newFig7Curve(metric, shape.totalCycles)
	acc.Cycles = make([]int64, shape.totalCycles)
	for i := range acc.Cycles {
		acc.Cycles[i] = int64(i + 1)
	}
	for _, tr := range trials {
		for k, mean := range acc.samples() {
			for i, v := range *tr.samples()[k] {
				(*mean)[i] += v / float64(shape.trials)
			}
		}
	}
	acc.JoinConvergence = convergenceCycles(acc.JoinSim, acc.RefSim, int(shape.eventCycle), 0.9)
	acc.ChangeConvergence = convergenceCycles(acc.ChangeSim, acc.RefSim, int(shape.eventCycle), 0.9)
	return acc
}

// convergenceCycles returns how many cycles after the event the candidate
// curve first reaches the threshold fraction of the reference curve.
// Returns -1 if never.
func convergenceCycles(candidate, reference []float64, event int, threshold float64) int {
	for i := event; i < len(candidate); i++ {
		if reference[i] <= 0 {
			continue
		}
		if candidate[i] >= threshold*reference[i] {
			return i - event
		}
	}
	return -1
}

// fig7Trial runs one seeded trial and returns its per-cycle samples.
func fig7Trial(o Options, shape fig7Shape, metric profile.Metric, seed int64) Fig7Curve {
	ds := dataset.Survey(dataset.SurveyConfig{Seed: o.Seed, Scale: o.Scale, Cycles: shape.totalCycles})
	// Opinions go through a mutable identity table: the joiner (entry
	// ds.Users) takes the reference's interests, the changing node swaps.
	remap := make([]news.NodeID, ds.Users+1)
	for i := range remap {
		remap[i] = news.NodeID(i)
	}
	op := core.OpinionFunc(func(n news.NodeID, item news.ID) bool { return ds.Likes(remap[n], item) })

	nodeCfg := core.Config{
		FLike:         10,
		Metric:        metric,
		ProfileWindow: shape.window,
	}
	w := sim.DatasetWorld(ds)
	w.NewPeer = func(id news.NodeID) sim.Peer {
		return core.NewNode(id, "", nodeCfg, op, nodeRNG(seed, int(id)))
	}

	// Trial-specific role assignment.
	roleRNG := nodeRNG(seed, 1<<20)
	refID := news.NodeID(roleRNG.Intn(ds.Users))
	changingID := news.NodeID(roleRNG.Intn(ds.Users))
	for changingID == refID {
		changingID = news.NodeID(roleRNG.Intn(ds.Users))
	}
	swapWith := news.NodeID(roleRNG.Intn(ds.Users))
	joinID := news.NodeID(ds.Users)
	remap[joinID] = refID // the joiner shares the reference's interests

	nCycles := shape.totalCycles
	tr := newFig7Curve(metric, nCycles)

	var ref, changing, joiner *core.Node
	// Trials run on the sweep pool; each engine stays serial unless asked.
	e, _ := w.NewEngine(o.engine(sim.Config{
		Seed:   seed,
		Cycles: nCycles,
		OnDelivery: func(d core.Delivery, now int64) {
			if !d.Liked || now < 1 || now > int64(nCycles) {
				return
			}
			switch d.Node {
			case refID:
				tr.RefLiked[now-1]++
			case joinID:
				tr.JoinLiked[now-1]++
			case changingID:
				tr.ChangeLiked[now-1]++
			}
		},
		OnCycleEnd: func(e *sim.Engine, now int64) {
			i := now - 1
			tr.RefSim[i] = ref.WUP().AverageSimilarity(ref.UserProfile())
			tr.ChangeSim[i] = changing.WUP().AverageSimilarity(changing.UserProfile())
			if joiner != nil {
				tr.JoinSim[i] = joiner.WUP().AverageSimilarity(joiner.UserProfile())
			}
		},
	}))
	ref, changing = e.Peer(refID).(*core.Node), e.Peer(changingID).(*core.Node)

	for c := 0; c < nCycles; c++ {
		if int64(c) == shape.eventCycle {
			// Interest change: the changing node swaps identities with a
			// random node (Section V-C).
			remap[changingID], remap[swapWith] = remap[swapWith], remap[changingID]
			// Join: cold start from a random host's views.
			host := e.Peer(news.NodeID(roleRNG.Intn(ds.Users))).Overlay()
			joiner = core.NewNode(joinID, "", nodeCfg, op, nodeRNG(seed, 1<<21))
			joiner.ColdStart(host.RPS().View().Entries(), host.WUP().View().Entries(), e.Now())
			e.AddPeer(joiner)
		}
		e.Step()
	}
	return tr
}

// String summarizes the dynamics result.
func (r Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 (survey, event at cycle %d of %d, %d trials)\n", r.EventCycle, r.TotalCycle, r.Trials)
	for _, c := range []Fig7Curve{r.WhatsUp, r.Cosine} {
		fmt.Fprintf(&b, "  metric=%-7s join-convergence=%s change-convergence=%s\n",
			c.Metric, orNone("%d cycles", int64(c.JoinConvergence), "never"), orNone("%d cycles", int64(c.ChangeConvergence), "never"))
		last := len(c.Cycles) - 1
		mid := int(r.EventCycle) + 5
		if mid > last {
			mid = last
		}
		fmt.Fprintf(&b, "    refSim(end)=%.2f joinSim(+5)=%.2f joinSim(end)=%.2f changeSim(end)=%.2f joinLiked(+5)=%.1f\n",
			c.RefSim[last], c.JoinSim[mid], c.JoinSim[last], c.ChangeSim[last], c.JoinLiked[mid])
	}
	return b.String()
}
