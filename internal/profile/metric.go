package profile

import "math"

// Metric computes the similarity between two profiles. The first argument is
// the profile of the node doing the selection (or the item profile during
// BEEP orientation), the second the candidate's profile. Implementations
// must return values in [0, 1] and be safe for concurrent use.
type Metric interface {
	// Similarity scores candidate c from the point of view of profile n.
	Similarity(n, c *Profile) float64
	// Name identifies the metric in experiment output ("wup", "cosine").
	Name() string
}

// intersect runs fn over the entries common to a and b using a two-pointer
// merge over the sorted entry slices.
func intersect(a, b *Profile, fn func(ea, eb Entry)) {
	i, j := 0, 0
	for i < len(a.entries) && j < len(b.entries) {
		ea, eb := a.entries[i], b.entries[j]
		switch {
		case ea.Item < eb.Item:
			i++
		case ea.Item > eb.Item:
			j++
		default:
			fn(ea, eb)
			i++
			j++
		}
	}
}

// WUP is the paper's asymmetric variation of cosine similarity (Section II):
//
//	Similarity(n, c) = sub(Pn,Pc)·Pc / (‖sub(Pn,Pc)‖ · ‖Pc‖)
//
// where sub(Pn,Pc) is the restriction of Pn to the items on which Pc
// expresses an opinion. The numerator counts items liked in both profiles;
// the ‖sub‖ denominator discourages selecting neighbours that dislike what n
// likes (spam avoidance); the ‖Pc‖ denominator favours candidates with more
// restrictive tastes and boosts cold-starting nodes with small profiles.
type WUP struct{}

// Name implements Metric.
func (WUP) Name() string { return "wup" }

// Similarity implements Metric.
func (WUP) Similarity(n, c *Profile) float64 {
	if n == nil || c == nil || n.Len() == 0 || c.Len() == 0 {
		return 0
	}
	var dot, subSq float64
	intersect(n, c, func(en, ec Entry) {
		dot += en.Score * ec.Score
		subSq += en.Score * en.Score
	})
	if dot <= 0 || subSq <= 0 {
		return 0
	}
	den := math.Sqrt(subSq) * c.Norm()
	if den == 0 {
		return 0
	}
	s := dot / den
	if s > 1 {
		s = 1 // guard float error; the metric is bounded by 1
	}
	return s
}

// Cosine is the classical cosine similarity over the score vectors
// (Tan, Steinbach & Kumar), the baseline metric the paper compares against:
//
//	cos(Pn, Pc) = Pn·Pc / (‖Pn‖ · ‖Pc‖)
//
// Absent items contribute zero to the dot product, so only the intersection
// needs to be scanned.
type Cosine struct{}

// Name implements Metric.
func (Cosine) Name() string { return "cosine" }

// Similarity implements Metric.
func (Cosine) Similarity(n, c *Profile) float64 {
	if n == nil || c == nil || n.Len() == 0 || c.Len() == 0 {
		return 0
	}
	var dot float64
	intersect(n, c, func(en, ec Entry) {
		dot += en.Score * ec.Score
	})
	if dot <= 0 {
		return 0
	}
	den := n.Norm() * c.Norm()
	if den == 0 {
		return 0
	}
	s := dot / den
	if s > 1 {
		s = 1
	}
	return s
}

var (
	_ Metric = WUP{}
	_ Metric = Cosine{}
)
