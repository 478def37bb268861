// Package profile implements WhatsUp interest profiles and the similarity
// metrics that drive the WUP clustering overlay (paper Sections II-B to II-E).
//
// A profile is a set of <item id, timestamp, score> triplets with a single
// entry per item. User profiles hold binary scores (1 = like, 0 = dislike);
// item profiles hold real scores obtained by averaging the user profiles of
// the nodes that liked the item along its dissemination path.
//
// A profile comes in two forms. Profile is the working form: entries in a
// slice sorted by item id, mutated in place, with a version counter bumped on
// every mutation. Packed is the form at rest: the immutable snapshot a gossip
// descriptor carries, made of the canonical packed wire bytes and Σ score².
// A node packs its advertised profile once per version, every view that
// holds the descriptor shares that snapshot, and the metrics score a Packed
// in place with a merge-join over its varint deltas — the same float
// operations in the same order as against the Profile it was packed from,
// so the same bits.
//
// Σ score² is a function of the entries: every mutator leaves it summed in
// ascending id order, the sum a decode computes, so equal entries carry
// equal bits whatever edits or serialisations produced them.
//
// An item profile in flight is never written: BEEP hands one profile to every
// path, and a receiver that changes it builds its own (Merged for a liker's
// fold into a new profile, Fold for one into scratch the receiver reuses,
// Windowed for a purge that finds a stale entry), leaving the one it was
// handed as it arrived. Folding a user profile into an item profile is a
// single-pass two-pointer merge (MergeAverage). ReadWire decodes into a
// profile's own entry array, so a receiver's scratch decodes and folds
// without allocating once it has grown.
package profile

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"whatsup/internal/news"
)

// Entry is one <id, timestamp, score> triplet (II-B).
type Entry struct {
	Item  news.ID
	Stamp int64   // when the opinion was expressed (gossip cycle / unix ms)
	Score float64 // 1 like, 0 dislike for user profiles; [0,1] for item profiles
}

// Profile is a set of entries with at most one entry per item identifier,
// kept sorted by item id. The zero value is not ready to use; call New.
//
// Profiles are not goroutine-safe for mutation; engines serialize access per
// owner. Pack, Clone, Merged and Windowed only read the receiver, so they
// may be called concurrently with each other and with other reads of the
// same profile: the parallel simulator snapshots profiles of idle peers
// during bootstrap, and receivers on different workers read the one item
// profile a forward handed them all.
type Profile struct {
	entries []Entry // sorted by Item
	sumSq   float64 // Σ score² in ascending id order, so a norm is O(1)
	version uint64  // bumped on every content mutation (similarity-cache key)
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{}
}

// WithCapacity returns an empty profile sized for n entries.
func WithCapacity(n int) *Profile {
	return &Profile{entries: make([]Entry, 0, n)}
}

// Len reports the number of entries.
func (p *Profile) Len() int { return len(p.entries) }

// Version returns the profile's monotonic mutation counter. Two reads
// returning the same value bracket a span with identical content, which is
// what makes (profile pointer, version) a sound similarity-cache key.
func (p *Profile) Version() uint64 { return p.version }

// search returns the position of id in the sorted entries and whether it is
// present.
func (p *Profile) search(id news.ID) (int, bool) {
	i := sort.Search(len(p.entries), func(i int) bool { return p.entries[i].Item >= id })
	return i, i < len(p.entries) && p.entries[i].Item == id
}

// Get returns the entry for an item and whether it exists.
func (p *Profile) Get(id news.ID) (Entry, bool) {
	if i, ok := p.search(id); ok {
		return p.entries[i], true
	}
	return Entry{}, false
}

// Set inserts or replaces the entry for an item (user-profile update,
// Algorithm 1 lines 5, 7 and 14).
//
//whatsup:hotpath
func (p *Profile) Set(id news.ID, stamp int64, score float64) {
	p.version++
	i, ok := p.search(id)
	if !ok {
		p.entries = append(p.entries, Entry{}) //whatsup:alloc amortized growth
		copy(p.entries[i+1:], p.entries[i:])
	}
	p.entries[i] = Entry{Item: id, Stamp: stamp, Score: score}
	p.resum()
}

// MergeAverage folds a liker's user profile into an item profile
// (addToNewsProfile, Algorithm 1 lines 18-22): where p already has a score s
// for an id of other, s becomes the average (s+score)/2, giving equal weight
// to both and personalising the item profile to the most recent liker, and
// the entry keeps the fresher of the two stamps, so reinforcing an item never
// makes it look older to the profile window (II-E); other's remaining
// entries are inserted as they are. It is one O(|p|+|other|) sorted merge
// with at most one allocation.
//
//whatsup:hotpath
func (p *Profile) MergeAverage(other *Profile) {
	if other == nil || len(other.entries) == 0 {
		return
	}
	p.fold(other)
}

// Merged returns p with other folded in as MergeAverage folds it, in a new
// profile with an entry array of its own, even when other is empty; p is
// only read, and other must not be nil. It is a liker's fold into the item
// profile it was handed (Algorithm 1 lines 3-4), which the other paths of
// the same forward hold too.
//
//whatsup:hotpath
func (p *Profile) Merged(other *Profile) *Profile {
	q := *p
	q.fold(other)
	return &q
}

// Fold sets q to p with other folded in as MergeAverage folds it, windowed
// at minStamp as PurgeOlderThan windows it: a liker's Algorithm 1 lines 3-4
// and 8-10 in one pass, giving the entries and Σ score² bits that Merged
// then PurgeOlderThan give. p and other are only read, and neither may be q.
// q's entry array is reused when it is large enough and doubled when it is
// not, so a scratch profile folded into again and again soon stops
// allocating.
//
//whatsup:hotpath
func (q *Profile) Fold(p, other *Profile, minStamp int64) {
	q.version++
	dst := q.entries[:0]
	if need := len(p.entries) + len(other.entries); cap(dst) < need {
		dst = make([]Entry, 0, 2*need) //whatsup:alloc only while the scratch grows, doubling
	}
	q.entries, q.sumSq = mergeEntries(dst, p.entries, other.entries, minStamp)
}

// Reset empties p, keeping its entry array for the next decode or fold, and
// bumps its version.
func (p *Profile) Reset() {
	p.version++
	p.entries, p.sumSq = p.entries[:0], 0
}

// fold is MergeAverage without its shortcut for an empty other: the result
// always gets an entry array of its own, and p's is only read.
//
//whatsup:hotpath
func (p *Profile) fold(other *Profile) {
	p.version++
	//whatsup:alloc the merge's single allocation, of exact capacity
	merged := make([]Entry, 0, len(p.entries)+len(other.entries))
	p.entries, p.sumSq = mergeEntries(merged, p.entries, other.entries, math.MinInt64)
}

// mergeEntries writes the sorted merge of a and b to dst — an id in both
// gets the average score and the fresher stamp — leaving out entries stamped
// before minStamp, and returns the written prefix of dst with Σ score² of
// it, summed in ascending id order. dst must have room for len(a)+len(b)
// entries and must not share an array with a or b.
//
//whatsup:hotpath
func mergeEntries(dst, a, b []Entry, minStamp int64) ([]Entry, float64) {
	dst = dst[:len(a)+len(b)]
	var sumSq float64
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		e, f := a[i], b[j]
		switch {
		case e.Item < f.Item:
			i++
		case e.Item > f.Item:
			e = f
			j++
		default:
			e.Score = (e.Score + f.Score) / 2
			if f.Stamp > e.Stamp {
				e.Stamp = f.Stamp
			}
			i++
			j++
		}
		if e.Stamp >= minStamp {
			sumSq += e.Score * e.Score
			dst[n] = e
			n++
		}
	}
	tail := a[i:] // at most one of the two tails is left
	if j < len(b) {
		tail = b[j:]
	}
	for _, e := range tail {
		if e.Stamp >= minStamp {
			sumSq += e.Score * e.Score
			dst[n] = e
			n++
		}
	}
	return dst[:n], sumSq
}

// PurgeOlderThan removes all entries whose timestamp is strictly older than
// minStamp and reports how many were dropped. This implements the profile
// window (II-E): the system only considers current interests, and inactive
// users decay back to empty profiles. When nothing is stale the profile is
// left untouched.
func (p *Profile) PurgeOlderThan(minStamp int64) int {
	if !p.holdsOlder(minStamp) {
		return 0
	}
	p.version++
	kept := p.entries[:0]
	var sumSq float64
	for _, e := range p.entries {
		if e.Stamp < minStamp {
			continue
		}
		sumSq += e.Score * e.Score
		kept = append(kept, e)
	}
	dropped := len(p.entries) - len(kept)
	if cap(kept) > 2*len(kept) {
		// Nothing else holds a user profile's array any more (snapshots are
		// packed copies), so right-size it here: windowed profiles shrink,
		// and append's doubling would otherwise keep their peak forever.
		kept = append(make([]Entry, 0, len(kept)), kept...)
	}
	p.entries, p.sumSq = kept, sumSq
	return dropped
}

// Windowed returns p with the entries older than minStamp purged as
// PurgeOlderThan purges them: p itself when nothing is stale, a purged copy
// otherwise, so p is only read. It is a disliker's window purge of the item
// profile it was handed (Algorithm 1 lines 8-10).
func (p *Profile) Windowed(minStamp int64) *Profile {
	if !p.holdsOlder(minStamp) {
		return p
	}
	q := p.Clone()
	q.PurgeOlderThan(minStamp)
	return q
}

// holdsOlder reports whether an entry is stamped strictly before minStamp.
func (p *Profile) holdsOlder(minStamp int64) bool {
	for _, e := range p.entries {
		if e.Stamp < minStamp {
			return true
		}
	}
	return false
}

// resum sets sumSq to Σ score² over the entries in ascending id order, the
// sum decodeWire computes, for the mutators whose edit does not walk them.
func (p *Profile) resum() {
	var sumSq float64
	for _, e := range p.entries {
		sumSq += e.Score * e.Score
	}
	p.sumSq = sumSq
}

// Clone returns a deep copy: the same entries in an array of its own, and
// the same version.
func (p *Profile) Clone() *Profile {
	return &Profile{entries: append([]Entry(nil), p.entries...), sumSq: p.sumSq, version: p.version}
}

// String renders a short human-readable form, capped to a few entries.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile{%d:", len(p.entries))
	for i, e := range p.entries {
		if i == 4 {
			b.WriteString(" …")
			break
		}
		fmt.Fprintf(&b, " %s=%.2f", e.Item, e.Score)
	}
	b.WriteString("}")
	return b.String()
}

// MostPopular returns the n item ids that occur most frequently across the
// given snapshots (ties broken by id for determinism). The cold-start
// procedure rates the 3 most popular items found in an inherited RPS view
// (II-D).
func MostPopular(profiles []*Packed, n int) []news.ID {
	counts := make(map[news.ID]int)
	for _, p := range profiles {
		if p == nil {
			continue
		}
		forEachItem(p.wire, func(id news.ID) { counts[id]++ })
	}
	ids := make([]news.ID, 0, len(counts))
	//whatsup:commutative keys collected then sorted below with a total order
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}
