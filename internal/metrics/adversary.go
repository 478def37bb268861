package metrics

// AdversaryStats aggregates the outcomes an adversarial scenario is judged
// by, from the honest population's point of view. The experiment driver
// fills it from delivery callbacks and view snapshots (the per-worker
// collector shards never learn who is hostile); Merge folds shards or
// repeated runs together.
type AdversaryStats struct {
	// SpamToHonest counts deliveries of attacker-published items to honest
	// nodes — the attack's reach.
	SpamToHonest int
	// HamToHonest counts deliveries of legitimate items to honest nodes over
	// the same window — the baseline the spam reach is judged against.
	HamToHonest int
	// AttackerSlots counts WUP view entries at honest nodes that point at
	// attacker nodes — the poisoning attack's grip on the overlay.
	AttackerSlots int
	// HonestSlots counts the remaining WUP view entries at honest nodes.
	HonestSlots int
}

// SpamPrecision is the fraction of items reaching honest nodes that are
// legitimate: 1 means the spam was fully contained, lower values mean the
// attack polluted the honest population's feeds. NaN-free: an empty window
// reports 1.
func (a AdversaryStats) SpamPrecision() float64 {
	total := a.SpamToHonest + a.HamToHonest
	if total == 0 {
		return 1
	}
	return float64(a.HamToHonest) / float64(total)
}

// PoisoningDrift is the fraction of honest nodes' WUP view slots occupied by
// attackers — how far the clustering overlay has drifted towards the hostile
// cohort. 0 with no slots observed.
func (a AdversaryStats) PoisoningDrift() float64 {
	total := a.AttackerSlots + a.HonestSlots
	if total == 0 {
		return 0
	}
	return float64(a.AttackerSlots) / float64(total)
}
