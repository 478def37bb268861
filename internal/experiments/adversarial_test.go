package experiments

import (
	"fmt"
	"testing"
)

// TestAdversarialSpamResilience is the headline robustness regression: a 10%
// spam-publishing cohort must degrade WhatsUp's honest-cohort feed quality
// strictly less (relative to its own clean baseline) than it degrades the
// gossip baseline's — the paper's implicit-quarantine claim, measured. The
// run is the same four-cell comparison whatsup-bench -run adversarial
// prints, at a reduced population.
func TestAdversarialSpamResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("four full simulations; skipped in -short")
	}
	r := AdversarialRun(AdversarialConfig{Peers: 400, Cycles: 30, SpamFraction: 0.10})

	// Sanity: the attack must actually hurt both protocols.
	if r.WUP.AttackedF1 >= r.WUP.CleanF1 {
		t.Fatalf("spam did not degrade WhatsUp: clean %.3f, attacked %.3f", r.WUP.CleanF1, r.WUP.AttackedF1)
	}
	if r.Gossip.AttackedF1 >= r.Gossip.CleanF1 {
		t.Fatalf("spam did not degrade gossip: clean %.3f, attacked %.3f", r.Gossip.CleanF1, r.Gossip.AttackedF1)
	}
	// The regression: relative damage must order strictly WUP < Gossip.
	if r.WUP.Damage >= r.Gossip.Damage {
		t.Fatalf("WhatsUp damage %.3f not strictly below gossip damage %.3f (gap %.3f)",
			r.WUP.Damage, r.Gossip.Damage, r.ResilienceGap)
	}
	if r.ResilienceGap <= 0 {
		t.Fatalf("resilience gap %.3f, want > 0", r.ResilienceGap)
	}
	// The mechanism: interest-clustered dissemination quarantines spam —
	// it reaches a much smaller honest audience than blind gossip gives it.
	if r.WUP.SpamReach >= r.Gossip.SpamReach {
		t.Fatalf("spam reach: WhatsUp %.3f not below gossip %.3f", r.WUP.SpamReach, r.Gossip.SpamReach)
	}
}

// TestAdversarialHeadlinePinned is the record of the default adversarial
// configuration (`whatsup-bench -run adversarial`: 600 peers × 40 cycles, a
// 10% sybil cohort that spams and poisons, a 2-way partition over cycles
// 10–20): the figures the README quotes, at the precision it quotes them.
// Every one is deterministic, so a change that moves them re-pins them here
// and in the README together.
func TestAdversarialHeadlinePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("four full simulations; skipped in -short")
	}
	r := AdversarialRun(AdversarialConfig{Poison: true, PartitionK: 2})
	for _, f := range []struct {
		name, got, want string
	}{
		{"whatsup damage %", fmt.Sprintf("%.1f", r.WUP.Damage*100), "32.1"},
		{"gossip damage %", fmt.Sprintf("%.1f", r.Gossip.Damage*100), "38.4"},
		{"whatsup spam reach", fmt.Sprintf("%.3f", r.WUP.SpamReach), "0.220"},
		{"gossip spam reach", fmt.Sprintf("%.3f", r.Gossip.SpamReach), "0.828"},
		{"resilience gap", fmt.Sprintf("%+.3f", r.ResilienceGap), "+0.063"},
	} {
		if f.got != f.want {
			t.Errorf("%s = %s, want %s", f.name, f.got, f.want)
		}
	}
}
