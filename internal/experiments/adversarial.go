package experiments

import (
	"fmt"
	"strings"

	"whatsup/internal/adversary"
	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/sim"
)

// The adversarial bench measures resilience: the same 4-community world is
// run clean and under attack — a spam cohort amplifying its own
// publications (optionally poisoning its advertised profiles too) while a
// k-way network partition severs the fleet mid-run and heals — for WhatsUp
// and for the homogeneous gossip baseline. The exhibit is the F1 *drop*
// each protocol suffers under the identical attack: BEEP's opinion-driven
// forwarding quarantines spam to single-copy dislike routing, while plain
// gossip re-amplifies every item at full fanout, so its feeds flood.
// `whatsup-bench -run adversarial` prints the comparison; every figure in it
// is deterministic, and TestAdversarialHeadlinePinned holds the default
// configuration's headline numbers.

// adversarialSpamBase is the item-id floor for spam publications, keeping
// them disjoint from the honest schedule: ids at or above it interest
// nobody per the ground truth.
const adversarialSpamBase news.ID = 1 << 20

// adversarialSpamPerCycle is the spam publication rate: a flood matching
// the 6 honest items per cycle.
const adversarialSpamPerCycle = 6

// AdversarialConfig sizes the adversarial bench world.
type AdversarialConfig struct {
	EngineOptions
	// Peers is the population, attackers included (default 600).
	Peers int
	// Cycles is the run length (default 40).
	Cycles int
	// SpamFraction is the attacker share of the population (default 0.10).
	SpamFraction float64
	// Poison makes the cohort sybils: besides amplifying spam they advertise
	// fabricated profiles claiming every honest item, pulling honest WUP
	// views towards the cohort (measured as PoisoningDrift).
	Poison bool
	// PartitionK, when ≥ 2, splits the fleet into k groups with all
	// cross-group links cut over the second quarter of the run, exercising
	// partition-and-heal under attack.
	PartitionK int
}

func (c AdversarialConfig) withDefaults() AdversarialConfig {
	if c.Peers <= 0 {
		c.Peers = 600
	}
	if c.Cycles <= 0 {
		c.Cycles = 40
	}
	if c.SpamFraction <= 0 {
		c.SpamFraction = 0.10
	}
	return c
}

// attackers is the size of the cohort adversary.Cohort picks.
func (c AdversarialConfig) attackers() int { return adversary.CohortSize(c.Peers, c.SpamFraction) }

// Validate rejects a world whose attacker cohort rounds to nobody or to
// everybody: the comparison needs at least one attacker and one honest node.
func (c AdversarialConfig) Validate() error {
	c = c.withDefaults()
	if n := c.attackers(); n < 1 || n >= c.Peers {
		return fmt.Errorf("adversarial: a spam fraction of %g makes %d of %d peers attackers; need at least one attacker and one honest node",
			c.SpamFraction, n, c.Peers)
	}
	return nil
}

// partition is the window over which the k-way partition cuts the fleet.
func (c AdversarialConfig) partition() (start, heal int64) {
	return int64(c.Cycles / 4), int64(c.Cycles / 2)
}

// adversarialPoint is one protocol×scenario cell of the comparison.
type adversarialPoint struct {
	col      *metrics.Collector
	adv      metrics.AdversaryStats
	timeline []metrics.ChurnSample
	spam     int     // spam items published
	honest   int     // honest node count
	honestF1 float64 // delivery-weighted F1 over honest feeds
}

// honestMicroF1 is the score the damage comparison uses: precision and
// recall weighted by deliveries into honest (non-attacker) feeds, so every
// spam copy that lands costs precision in proportion to the attention it
// wastes. The per-item macro F1 would weight a spam item that trickled to
// five nodes the same as one that flooded the fleet, flattering the flooded
// protocol.
func honestMicroF1(col *metrics.Collector) float64 {
	var received, liked, interested int
	for _, id := range col.NodeIDs() {
		if col.CohortOf(id) == metrics.CohortAttacker {
			continue
		}
		ns := col.Node(id)
		received += ns.Received
		liked += ns.ReceivedLiked
		interested += ns.Interested
	}
	if received == 0 || interested == 0 {
		return 0
	}
	p := float64(liked) / float64(received)
	r := float64(liked) / float64(interested)
	return metrics.F1Of(p, r)
}

// runAdversarialPoint builds and runs the world once. The honest workload,
// seeds and cohort membership are identical across cells, so the clean and
// attacked runs of each protocol differ only by the attack itself.
func runAdversarialPoint(cfg AdversarialConfig, alg Algorithm, attacked bool) adversarialPoint {
	ids := make([]news.NodeID, cfg.Peers)
	for i := range ids {
		ids[i] = news.NodeID(i)
	}
	attackers := adversary.Cohort(ids, cfg.SpamFraction)
	attackerIDs := ids[:len(attackers)]
	honestIDs := ids[len(attackers):]

	// The honest workload: 4 interest communities, honest sources only, and
	// a ground truth in which spam interests nobody.
	w := sim.Communities(cfg.Peers, 4, 6, cfg.Cycles, "ham")
	for i := range w.Items {
		w.Items[i].Item.Source = honestIDs[int(w.Items[i].Item.ID)%len(honestIDs)]
	}
	community := w.Opinions
	w.Opinions = core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
		return item < adversarialSpamBase && community.Likes(node, item)
	})

	// One shared behavior instance for the whole cohort (the sybil pattern);
	// read-only after construction.
	var hostile core.Behavior
	if attacked {
		spammer := adversary.Spammer{Cohort: attackers}
		if cfg.Poison {
			claim := make([]news.ID, len(w.Items)) // every honest item
			for i := range w.Items {
				claim[i] = w.Items[i].Item.ID
			}
			hostile = &adversary.Sybil{Spammer: spammer, Poison: adversary.Poisoner{ClaimLiked: claim}}
		} else {
			hostile = &spammer
		}
	}

	newPeer := peerFactory(RunConfig{Alg: alg, Fanout: 6, RPSViewSize: 20, Seed: 1}, w.Opinions)
	w.NewPeer = func(id news.NodeID) sim.Peer {
		p := newPeer(id)
		if hostile != nil && attackers[id] {
			p.Overlay().SetBehavior(hostile)
		}
		return p
	}

	spamCount := 0
	if attacked {
		for c := 1; c <= cfg.Cycles; c++ {
			for k := 0; k < adversarialSpamPerCycle; k++ {
				src := attackerIDs[(c*adversarialSpamPerCycle+k)%len(attackerIDs)]
				it := news.New(fmt.Sprintf("spam-%d-%d", c, k), "d", "l", int64(c), src)
				it.ID = adversarialSpamBase + news.ID(spamCount)
				w.Items = append(w.Items, sim.WorldItem{Cycle: int64(c), Item: it})
				spamCount++
			}
		}
	}

	var links *faultnet.Policy
	if attacked && cfg.PartitionK >= 2 {
		start, heal := cfg.partition()
		links = faultnet.KWayPartition(ids, cfg.PartitionK, start, heal)
	}

	pt := adversarialPoint{spam: spamCount, honest: len(honestIDs)}
	e, col := w.NewEngine(cfg.engine(sim.Config{
		Seed: 1, Cycles: cfg.Cycles, Links: links,
		OnDelivery: func(d core.Delivery, now int64) {
			if attackers[d.Node] {
				return
			}
			if d.Item >= adversarialSpamBase {
				pt.adv.SpamToHonest++
			} else {
				pt.adv.HamToHonest++
			}
		},
		OnCycleEnd: func(e *sim.Engine, _ int64) {
			pt.timeline = append(pt.timeline, e.Health())
		},
	}))
	// Cohort labels are identical in both cells so the per-cohort summaries
	// stay comparable: attacker beats victim beats the churn labels.
	for _, id := range attackerIDs {
		col.SetCohort(id, metrics.CohortAttacker)
	}
	if cfg.PartitionK >= 2 {
		for _, id := range honestIDs {
			if int(id)%cfg.PartitionK != 0 {
				col.SetCohort(id, metrics.CohortVictim)
			}
		}
	}

	e.Run()

	// Poisoning drift: how much of the honest WUP neighbourhood the cohort
	// captured (plain gossip has no clustering layer — always 0).
	for _, p := range e.Peers() {
		o := p.Overlay()
		if attackers[o.ID()] || !o.Has(core.WUPLayer) {
			continue
		}
		o.WUP().View().ForEach(func(d overlay.Descriptor) {
			if attackers[d.Node] {
				pt.adv.AttackerSlots++
			} else {
				pt.adv.HonestSlots++
			}
		})
	}
	pt.col = col
	pt.honestF1 = honestMicroF1(col)
	return pt
}

// AdversarialSideResult is one protocol's column of the comparison. The
// headline scores are delivery-weighted (honestMicroF1); Damage normalizes
// the drop by the clean score, because the protocols operate at very
// different baselines and an absolute delta would flatter whichever starts
// lower.
type AdversarialSideResult struct {
	Protocol   string
	CleanF1    float64
	AttackedF1 float64
	// Damage is the fraction of the clean F1 the attack destroyed.
	Damage float64
	// SpamPrecision is the legitimate fraction of items delivered to honest
	// nodes under attack (1 = spam fully contained).
	SpamPrecision float64
	// SpamReach is the mean fraction of the honest population each spam
	// item reached.
	SpamReach float64
	// PoisoningDrift is the attacker share of honest WUP view slots at the
	// end of the attacked run (0 for protocols without a clustering layer).
	PoisoningDrift float64
	// VictimF1 is the attacked-run F1 of the honest nodes cut off by the
	// partition (0 when no partition is configured).
	VictimF1 float64
}

// AdversarialResult is the four-cell comparison of the (resolved)
// configuration it embeds.
type AdversarialResult struct {
	AdversarialConfig

	WUP    AdversarialSideResult
	Gossip AdversarialSideResult
	// ResilienceGap is Gossip's normalized damage minus WhatsUp's: positive
	// means WhatsUp weathered the identical attack better.
	ResilienceGap float64

	// Partition-heal evidence from WhatsUp's attacked timeline: how many
	// cycles links were severed, the WUP view fill floor while cut, and the
	// fill at the end of the run (recovered ≈ pre-partition levels).
	PartitionCycles     int
	WUPFillPartitionMin float64
	WUPFillEnd          float64
}

// AdversarialRun executes the four cells (WhatsUp/Gossip × clean/attacked)
// and folds them into one comparison. The configuration must pass Validate
// (the CLI checks it where the flags arrive).
func AdversarialRun(cfg AdversarialConfig) AdversarialResult {
	cfg = cfg.withDefaults()
	cells := parallel(4, []func() adversarialPoint{
		func() adversarialPoint { return runAdversarialPoint(cfg, WhatsUp, false) },
		func() adversarialPoint { return runAdversarialPoint(cfg, WhatsUp, true) },
		func() adversarialPoint { return runAdversarialPoint(cfg, PlainGossip, false) },
		func() adversarialPoint { return runAdversarialPoint(cfg, PlainGossip, true) },
	})
	wupClean, wupAtk, gosClean, gosAtk := cells[0], cells[1], cells[2], cells[3]

	side := func(proto string, clean, atk adversarialPoint) AdversarialSideResult {
		s := AdversarialSideResult{
			Protocol:       proto,
			CleanF1:        clean.honestF1,
			AttackedF1:     atk.honestF1,
			SpamPrecision:  atk.adv.SpamPrecision(),
			PoisoningDrift: atk.adv.PoisoningDrift(),
		}
		if s.CleanF1 > 0 {
			s.Damage = (s.CleanF1 - s.AttackedF1) / s.CleanF1
		}
		if atk.spam > 0 && atk.honest > 0 {
			s.SpamReach = float64(atk.adv.SpamToHonest) / float64(atk.spam*atk.honest)
		}
		if cfg.PartitionK >= 2 {
			s.VictimF1 = atk.col.CohortSummary(metrics.CohortVictim).F1()
		}
		return s
	}

	r := AdversarialResult{
		AdversarialConfig: cfg,
		WUP:               side("whatsup", wupClean, wupAtk),
		Gossip:            side("gossip", gosClean, gosAtk),
	}
	r.ResilienceGap = r.Gossip.Damage - r.WUP.Damage
	for _, s := range wupAtk.timeline {
		if s.PartitionsActive > 0 {
			r.PartitionCycles++
			if r.WUPFillPartitionMin == 0 || s.WUPFill < r.WUPFillPartitionMin {
				r.WUPFillPartitionMin = s.WUPFill
			}
		}
	}
	if n := len(wupAtk.timeline); n > 0 {
		r.WUPFillEnd = wupAtk.timeline[n-1].WUPFill
	}
	return r
}

// String renders the comparison.
func (r AdversarialResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adversarial bench: %d peers, %d cycles, %d attackers (%.0f%%), %d spam/cycle, poison=%v",
		r.Peers, r.Cycles, r.attackers(), r.SpamFraction*100, adversarialSpamPerCycle, r.Poison)
	if r.PartitionK >= 2 {
		start, heal := r.partition()
		fmt.Fprintf(&b, ", %d-way partition cycles %d-%d", r.PartitionK, start, heal)
	}
	b.WriteString("\n")
	row := func(s AdversarialSideResult) {
		fmt.Fprintf(&b, "  %-8s feed-F1 %.3f -> %.3f (damage %.1f%%)  spam-precision %.3f  spam-reach %.3f  drift %.3f",
			s.Protocol, s.CleanF1, s.AttackedF1, s.Damage*100, s.SpamPrecision, s.SpamReach, s.PoisoningDrift)
		if s.VictimF1 > 0 {
			fmt.Fprintf(&b, "  victim-F1 %.3f", s.VictimF1)
		}
		b.WriteString("\n")
	}
	row(r.WUP)
	row(r.Gossip)
	fmt.Fprintf(&b, "  resilience gap (gossip damage - whatsup damage): %+.3f", r.ResilienceGap)
	if r.PartitionCycles > 0 {
		fmt.Fprintf(&b, "\n  partition: %d cycles cut, WUP fill floor %.2f, end %.2f", r.PartitionCycles, r.WUPFillPartitionMin, r.WUPFillEnd)
	}
	return b.String()
}
