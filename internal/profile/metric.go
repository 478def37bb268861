package profile

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Metric computes the similarity between two profiles. The first argument is
// the profile of the node doing the selection (or the item profile during
// BEEP orientation), the second the candidate's profile. Implementations
// must return values in [0, 1] and be safe for concurrent use.
type Metric interface {
	// Similarity scores candidate c from the point of view of profile n.
	Similarity(n, c *Profile) float64
	// SimilarityPacked scores a packed snapshot of the candidate: the value,
	// to the bit, that Similarity gives against the profile it was packed
	// from.
	SimilarityPacked(n *Profile, c *Packed) float64
	// Name identifies the metric in experiment output ("wup", "cosine").
	Name() string
}

// overlap is what a merge-join of a target profile with a candidate
// accumulates over the items both rate, in ascending id order: the dot
// product, and the target's squared norm restricted to the candidate. add is
// the one place the metrics' float operations on entries happen; a decoded
// and a packed candidate differ only in the join's walk over the candidate.
type overlap struct{ dot, subSq float64 }

func (o *overlap) add(sn, sc float64) {
	o.dot += sn * sc
	o.subSq += sn * sn
}

// joinEntries is the merge-join over the candidate's decoded entries.
func joinEntries(n, c []Entry) (o overlap) {
	i, j := 0, 0
	for i < len(n) && j < len(c) {
		switch a, b := n[i].Item, c[j].Item; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			o.add(n[i].Score, c[j].Score)
			i++
			j++
		}
	}
	return o
}

// joinPacked is the merge-join over the candidate's packed bytes: ids are
// summed from their deltas, and a stamp and score are decoded only where
// the ids match. want is the id of n[i], the target entry the walk is at.
func joinPacked(n []Entry, c []byte) (o overlap) {
	if len(n) == 0 {
		return o
	}
	left, k := packedUint(c, 0)
	id, i, want := uint64(0), 0, uint64(n[0].Item)
	for ; left > 0; left-- {
		if b := c[k]; b < 0x80 {
			id, k = id+uint64(b), k+1
		} else if len(c)-k >= 10 {
			// Eight bytes at once: hashed ids make most deltas nine long.
			x := binary.LittleEndian.Uint64(c[k:])
			if ends := ^x & 0x8080808080808080; ends != 0 {
				nb := bits.TrailingZeros64(ends) + 1
				id, k = id+compact7(x&(1<<nb-1)), k+nb/8
			} else if b := c[k+8]; b < 0x80 {
				id, k = id+(compact7(x)|uint64(b)<<56), k+9
			} else {
				id, k = id+(compact7(x)|uint64(b&0x7f)<<56|uint64(c[k+9])<<63), k+10
			}
		} else {
			var delta uint64
			delta, k = packedUint(c, k)
			id += delta
		}
		for want < id {
			if i++; i == len(n) {
				return o
			}
			want = uint64(n[i].Item)
		}
		if want != id {
			k = skipScore(c, skipVarint(c, k))
			continue
		}
		var sc float64
		sc, k = packedScore(c, skipVarint(c, k))
		o.add(n[i].Score, sc)
		if i++; i == len(n) {
			return o
		}
		want = uint64(n[i].Item)
	}
	return o
}

// norm is ‖P‖ from Σ score².
func norm(sumSq float64) float64 {
	if sumSq <= 0 {
		return 0
	}
	return math.Sqrt(sumSq)
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
	if n == nil || c == nil {
		return 0
	}
	return wup(joinEntries(n.entries, c.entries), c.sumSq)
}

// SimilarityPacked implements Metric.
func (WUP) SimilarityPacked(n *Profile, c *Packed) float64 {
	if n == nil || c == nil {
		return 0
	}
	return wup(joinPacked(n.entries, c.wire), c.sumSq)
}

func wup(o overlap, cSumSq float64) float64 {
	if o.dot <= 0 || o.subSq <= 0 {
		return 0
	}
	den := math.Sqrt(o.subSq) * norm(cSumSq)
	if den == 0 {
		return 0
	}
	s := o.dot / den
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
	if n == nil || c == nil {
		return 0
	}
	return cosine(joinEntries(n.entries, c.entries), n.sumSq, c.sumSq)
}

// SimilarityPacked implements Metric.
func (Cosine) SimilarityPacked(n *Profile, c *Packed) float64 {
	if n == nil || c == nil {
		return 0
	}
	return cosine(joinPacked(n.entries, c.wire), n.sumSq, c.sumSq)
}

func cosine(o overlap, nSumSq, cSumSq float64) float64 {
	if o.dot <= 0 {
		return 0
	}
	den := norm(nSumSq) * norm(cSumSq)
	if den == 0 {
		return 0
	}
	s := o.dot / den
	if s > 1 {
		s = 1
	}
	return s
}

var (
	_ Metric = WUP{}
	_ Metric = Cosine{}
)
