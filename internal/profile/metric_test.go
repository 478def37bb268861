package profile

import (
	"math"
	"math/rand"
	"testing"

	"whatsup/internal/news"
)

// like/dislike helpers for readable metric tests.
func likes(ids ...news.ID) *Profile {
	p := New()
	for _, id := range ids {
		p.Set(id, 0, 1)
	}
	return p
}

func withDislikes(p *Profile, ids ...news.ID) *Profile {
	for _, id := range ids {
		p.Set(id, 0, 0)
	}
	return p
}

func TestWUPEmptyProfiles(t *testing.T) {
	m := WUP{}
	if m.Similarity(New(), likes(1)) != 0 || m.Similarity(likes(1), New()) != 0 {
		t.Fatal("empty profiles must have similarity 0")
	}
	if m.Similarity(nil, likes(1)) != 0 {
		t.Fatal("nil profile must have similarity 0")
	}
}

func TestWUPIdenticalBinaryProfiles(t *testing.T) {
	m := WUP{}
	p := likes(1, 2, 3, 4)
	if got := m.Similarity(p, p); math.Abs(got-1) > 1e-12 {
		t.Fatalf("identical profiles: got %v want 1", got)
	}
}

func TestWUPPenalizesDislikedOverlap(t *testing.T) {
	// c1 likes both of n's liked items; c2 likes one and dislikes the other.
	// The ‖sub‖ denominator must rank c1 above c2 (spam avoidance).
	m := WUP{}
	n := likes(1, 2)
	c1 := likes(1, 2)
	c2 := withDislikes(likes(1), 2)
	if s1, s2 := m.Similarity(n, c1), m.Similarity(n, c2); s1 <= s2 {
		t.Fatalf("dislike penalty missing: full=%v partial=%v", s1, s2)
	}
}

func TestWUPFavorsRestrictiveTastes(t *testing.T) {
	// Same overlap, but c2 likes many extra items: the ‖Pc‖ denominator must
	// favour the more selective c1. This is also the cold-start boost: small
	// profiles with popular items rank high.
	m := WUP{}
	n := likes(1, 2)
	c1 := likes(1, 2)
	c2 := likes(1, 2, 3, 4, 5, 6, 7, 8)
	if s1, s2 := m.Similarity(n, c1), m.Similarity(n, c2); s1 <= s2 {
		t.Fatalf("restrictive-taste preference missing: small=%v large=%v", s1, s2)
	}
}

func TestWUPAsymmetry(t *testing.T) {
	// The metric is asymmetric: sub() restricts to n's side.
	// a likes {1,2}; b likes {1,3} and dislikes {2}.
	// Sim(a,b) = 1/(√2·√2) = 0.5; Sim(b,a) = 1/(1·√2) ≈ 0.707.
	m := WUP{}
	a := likes(1, 2)
	b := withDislikes(likes(1, 3), 2)
	sab, sba := m.Similarity(a, b), m.Similarity(b, a)
	if math.Abs(sab-0.5) > 1e-12 || math.Abs(sba-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("asymmetry values wrong: sab=%v sba=%v", sab, sba)
	}
}

func TestWUPKnownValue(t *testing.T) {
	// n likes {1,2,3}; c rated {1:like, 2:dislike, 9:like}.
	// dot = 1 (item 1); sub = {1,2} → ‖sub‖=√2; ‖Pc‖=√2 (likes 1 and 9).
	// similarity = 1/(√2·√2) = 0.5.
	m := WUP{}
	n := likes(1, 2, 3)
	c := withDislikes(likes(1, 9), 2)
	if got := m.Similarity(n, c); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("known value: got %v want 0.5", got)
	}
}

func TestCosineKnownValue(t *testing.T) {
	// n likes {1,2}; c likes {1,3}. dot=1, norms=√2·√2 → 0.5.
	m := Cosine{}
	n := likes(1, 2)
	c := likes(1, 3)
	if got := m.Similarity(n, c); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("cosine known value: got %v want 0.5", got)
	}
}

func TestCosineSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Cosine{}
	for trial := 0; trial < 100; trial++ {
		a := randomProfile(rng, 1+rng.Intn(20), 30)
		b := randomProfile(rng, 1+rng.Intn(20), 30)
		if sab, sba := m.Similarity(a, b), m.Similarity(b, a); math.Abs(sab-sba) > 1e-12 {
			t.Fatalf("cosine must be symmetric: %v vs %v", sab, sba)
		}
	}
}

func TestMetricsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, m := range []Metric{WUP{}, Cosine{}} {
		for trial := 0; trial < 300; trial++ {
			a := randomProfile(rng, rng.Intn(25), 20)
			b := randomProfile(rng, rng.Intn(25), 20)
			s := m.Similarity(a, b)
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("%s out of range: %v (a=%v b=%v)", m.Name(), s, a, b)
			}
		}
	}
}

func TestWUPColdStartBoost(t *testing.T) {
	// A joining node with a tiny profile of popular items must look *better*
	// to established nodes than a candidate with a diluted large profile
	// (Section II-D relies on this).
	m := WUP{}
	established := likes(1, 2, 3, 4, 5, 6)
	joiner := likes(1, 2, 3) // only popular items
	veteran := likes(1, 2, 3, 10, 11, 12, 13, 14, 15, 16, 17, 18)
	if sj, sv := m.Similarity(established, joiner), m.Similarity(established, veteran); sj <= sv {
		t.Fatalf("cold-start boost missing: joiner=%v veteran=%v", sj, sv)
	}
}

func TestWUPWithItemProfileScores(t *testing.T) {
	// Orientation compares an item profile (real scores) against user
	// profiles; the metric must handle non-binary scores.
	m := WUP{}
	item := New()
	item.Set(1, 0, 0.75)
	item.Set(2, 0, 0.25)
	user := likes(1, 2)
	s := m.Similarity(item, user)
	if s <= 0 || s > 1 {
		t.Fatalf("item-profile similarity out of range: %v", s)
	}
}

func BenchmarkWUPSimilarity(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := randomProfile(rng, 200, 1000)
	c := randomProfile(rng, 200, 1000)
	m := WUP{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Similarity(a, c)
	}
}

func BenchmarkCosineSimilarity(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := randomProfile(rng, 200, 1000)
	c := randomProfile(rng, 200, 1000)
	m := Cosine{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Similarity(a, c)
	}
}
