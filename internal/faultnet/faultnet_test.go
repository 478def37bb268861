package faultnet

import (
	"math"
	"testing"
	"time"

	"whatsup/internal/news"
)

func TestLinkRulesAndDefault(t *testing.T) {
	p := New()
	p.AssignClass(1, ClassStraggler)
	slow := Rule{Loss: 0.5, Base: 50 * time.Millisecond}
	p.SetRule(ClassStraggler, ClassDefault, slow)

	if got := p.Link(1, 2, 0).Rule; got != slow {
		t.Fatalf("straggler outbound rule = %+v, want %+v", got, slow)
	}
	// No rule for (default, straggler): a perfect link.
	if got := p.Link(2, 1, 0).Rule; got != (Rule{}) {
		t.Fatalf("unmatched pair rule = %+v, want a perfect link", got)
	}
}

func TestPartitionWindowAndHeal(t *testing.T) {
	ids := []news.NodeID{0, 1, 2, 3}
	p := KWayPartition(ids, 2, 5, 10)
	// Groups are round-robin: 0,2 vs 1,3.
	cases := []struct {
		cycle int64
		cut   bool
	}{{4, false}, {5, true}, {9, true}, {10, false}}
	for _, c := range cases {
		if got := p.Link(0, 1, c.cycle).Cut; got != c.cut {
			t.Errorf("cycle %d: cross-group cut = %v, want %v", c.cycle, got, c.cut)
		}
		if p.Link(0, 2, c.cycle).Cut {
			t.Errorf("cycle %d: same-group link cut", c.cycle)
		}
	}
	// A node outside the partition map is unaffected.
	if p.Link(0, 99, 7).Cut || p.Link(99, 1, 7).Cut {
		t.Fatal("unassigned node was partitioned")
	}
	if got := p.ActivePartitions(7); got != 1 {
		t.Fatalf("ActivePartitions(7) = %d, want 1", got)
	}
	if got := p.ActivePartitions(10); got != 0 {
		t.Fatalf("ActivePartitions(10) = %d, want 0", got)
	}
}

func TestDrawDeterministicAndUniform(t *testing.T) {
	// Same inputs, same draw — the property the sim's determinism pin relies on.
	a := Draw(7, 3, 4, 12, 2, 99)
	b := Draw(7, 3, 4, 12, 2, 99)
	if a != b {
		t.Fatalf("Draw not deterministic: %v vs %v", a, b)
	}
	// Distinct events decorrelate, and the empirical mean of a modest sample
	// is near 0.5 (loose bound; this is a hash, not a statistics suite).
	var sum float64
	n := 0
	for from := news.NodeID(0); from < 40; from++ {
		for cycle := int64(0); cycle < 50; cycle++ {
			v := Draw(7, from, from+1, cycle, 1, 0)
			if v < 0 || v >= 1 {
				t.Fatalf("Draw out of range: %v", v)
			}
			sum += v
			n++
		}
	}
	if mean := sum / float64(n); mean < 0.45 || mean > 0.55 {
		t.Fatalf("Draw mean %v outside [0.45, 0.55]", mean)
	}
}

func TestStragglersCohortStable(t *testing.T) {
	ids := make([]news.NodeID, 200)
	for i := range ids {
		ids[i] = news.NodeID(i)
	}
	slow := Rule{Base: 20 * time.Millisecond, Loss: 0.2}
	p1 := Stragglers(ids, 0.25, 42, slow)
	p2 := Stragglers(ids, 0.25, 42, slow)
	n := 0
	for _, id := range ids {
		s1 := p1.Link(id, 999, 0).Rule == slow
		s2 := p2.Link(id, 999, 0).Rule == slow
		if s1 != s2 {
			t.Fatalf("straggler selection for %d not stable across builds", id)
		}
		if s1 {
			n++
		}
	}
	if n < 20 || n > 90 {
		t.Fatalf("straggler cohort size %d wildly off 25%% of 200", n)
	}
}

func TestRuleDelay(t *testing.T) {
	r := Rule{Base: 10 * time.Millisecond, Jitter: 10 * time.Millisecond, BandwidthBPS: 1000}
	// u=0.5 → 5ms jitter; 100 bytes at 1000 B/s → 100ms serialization.
	got := r.Delay(100, 0.5)
	want := 115 * time.Millisecond
	if got != want {
		t.Fatalf("Delay = %v, want %v", got, want)
	}
	if d := (Rule{}).Delay(1<<20, 0.9); d != 0 {
		t.Fatalf("zero rule Delay = %v, want 0", d)
	}
}

// TestComposePutsBaseUnderLink pins the one composition rule both runtimes
// decide a drop with: a nil policy is the base, a zero base is the link's
// rule, losses combine as independent events, and a cut link drops all.
func TestComposePutsBaseUnderLink(t *testing.T) {
	base := Rule{Loss: 0.2, Base: 3 * time.Millisecond, Jitter: time.Millisecond, BandwidthBPS: 10}
	var none *Policy
	if got := none.Compose(base, 1, 2, 5); got != (LinkState{Rule: base}) {
		t.Fatalf("nil policy composes to %+v, want the base %+v", got, base)
	}

	link := Rule{Loss: 0.3, Base: 7 * time.Millisecond, Jitter: 2 * time.Millisecond, BandwidthBPS: 1000}
	p := New().AssignClass(1, ClassStraggler).SetRule(ClassStraggler, ClassDefault, link)
	if got := p.Compose(Rule{}, 1, 2, 5); got != (LinkState{Rule: link}) {
		t.Fatalf("zero base composes to %+v, want the link's rule %+v", got, link)
	}
	if got := p.Compose(base, 1, 2, 5).Rule; got.Base != 10*time.Millisecond || got.Jitter != link.Jitter || got.BandwidthBPS != link.BandwidthBPS {
		t.Fatalf("composed rule %+v: want latencies added, jitter and bandwidth the link's", got)
	}

	const keys = 10000
	a, b := 0.2, 0.3
	ls := New().SetRule(ClassDefault, ClassDefault, Rule{Loss: b}).Compose(Rule{Loss: a}, 3, 4, 9)
	dropped := 0
	for k := uint64(0); k < keys; k++ {
		if ls.Drops(11, 3, 4, 9, 1, k) {
			dropped++
		}
	}
	want := 1 - (1-a)*(1-b)
	if sigma := math.Sqrt(keys * want * (1 - want)); math.Abs(float64(dropped)-keys*want) > 3*sigma {
		t.Fatalf("base %g under link %g dropped %d of %d keys, want %g ± 3σ (σ = %.1f)", a, b, dropped, keys, keys*want, sigma)
	}

	cut := KWayPartition([]news.NodeID{3, 4}, 2, 0, 0).Compose(Rule{}, 3, 4, 9)
	for k := uint64(0); k < 100; k++ {
		if !cut.Drops(11, 3, 4, 9, 1, k) {
			t.Fatalf("a cut link delivered key %d", k)
		}
	}
}
