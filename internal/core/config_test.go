package core

import "testing"

// TestForPopulationSmallScaleIdentity pins that ForPopulation is a strict
// no-op below the large-scale threshold: every config the paper-scale
// experiments build must come back byte-identical, so the sharded engine's
// large-scale defaults can never perturb validated small-scale results.
func TestForPopulationSmallScaleIdentity(t *testing.T) {
	cfgs := []Config{
		{},
		Config{}.WithDefaults(),
		{FLike: 4, RPSViewSize: 8, ProfileWindow: 25, DescriptorTTL: 10},
		{noticePiggybackCap: 7},
	}
	for _, n := range []int{0, 1, 5000, LargeScalePopulation - 1} {
		for i, cfg := range cfgs {
			got := cfg.ForPopulation(n)
			if got != cfg {
				t.Errorf("n=%d cfg[%d]: ForPopulation changed config: %+v -> %+v", n, i, cfg, got)
			}
		}
	}
}

// TestForPopulationLargeScaleCap asserts the bounded piggyback default kicks
// in above the threshold — and only for an unset cap.
func TestForPopulationLargeScaleCap(t *testing.T) {
	got := Config{}.ForPopulation(LargeScalePopulation)
	if got.noticePiggybackCap != LargeScaleNoticeCap {
		t.Errorf("unset cap at threshold: got %d, want %d", got.noticePiggybackCap, LargeScaleNoticeCap)
	}
	if rest := (Config{noticePiggybackCap: LargeScaleNoticeCap}); got != rest {
		t.Errorf("ForPopulation changed more than the cap: %+v", got)
	}
	explicit := Config{noticePiggybackCap: 7}.ForPopulation(2 * LargeScalePopulation)
	if explicit.noticePiggybackCap != 7 {
		t.Errorf("explicit cap overridden: got %d, want 7", explicit.noticePiggybackCap)
	}
	uncapped := Config{noticePiggybackCap: -1}.ForPopulation(2 * LargeScalePopulation)
	if uncapped.noticePiggybackCap != -1 {
		t.Errorf("explicit uncapped (-1) overridden: got %d", uncapped.noticePiggybackCap)
	}
}
