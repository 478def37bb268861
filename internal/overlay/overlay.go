// Package overlay provides the view data structures shared by the two gossip
// layers of WUP: the random peer sampling protocol (internal/rps) and the
// similarity-based clustering protocol (internal/cluster).
//
// Each view entry is a Descriptor associating a node ID with a snapshot of
// its profile and the timestamp at which the descriptor was generated by that
// node (paper Section II). The paper's descriptor also carries the node's
// address; here transports resolve node ids themselves, so a descriptor holds
// none. The snapshot is a profile.Packed: the profile's packed wire bytes and
// their Σ score², immutable, made once per profile version by its node and
// shared by every view that holds a descriptor of that version. Views score it
// in place, and encode it by copying its bytes.
// Immutability is what makes the view's similarity cache sound: a view
// ranked by similarity keeps the scores of its capacity survivors and nothing
// else — see scoreCache.
package overlay

import (
	"math/rand"
	"slices"
	"sync"

	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

// Descriptor is one view entry: 24 bytes, copied by value through every
// view, merge scratch and decode arena.
type Descriptor struct {
	Node    news.NodeID     // node identifier
	Stamp   int64           // generation time at the descriptor's node
	Profile *profile.Packed // immutable profile snapshot
}

// Fresher reports whether d is strictly fresher than other, with node id as
// a deterministic tie-break.
func (d Descriptor) Fresher(other Descriptor) bool {
	if d.Stamp != other.Stamp {
		return d.Stamp > other.Stamp
	}
	return d.Node < other.Node
}

// WireSize returns the exact number of bytes AppendDescriptor produces for
// d, computed without encoding. The simulator's bandwidth accounting
// (Figure 8b) and the live codec therefore agree byte-for-byte.
func (d Descriptor) WireSize() int {
	// node, reserved byte, stamp, presence flag
	size := wire.IntLen(int64(d.Node)) + 1 + wire.IntLen(d.Stamp) + 1
	if d.Profile != nil {
		size += d.Profile.WireSize()
	}
	return size
}

// scoreSlot is one cached (survivor snapshot, score) pair.
type scoreSlot struct {
	prof  *profile.Packed
	score float64
}

// scoreCache holds the scores of the last TrimBySimilarity's survivors
// against the profile they were ranked by: at most capacity (snapshot, score)
// pairs, copied out of the pooled ranked scratch, so the view's resident
// entries — re-offered on every merge — are not rescored while the node's
// profile is unchanged. A candidate that is not a survivor is scored and not
// stored, and nothing that left the view stays pinned past the next trim.
// Soundness: a descriptor's profile.Packed is immutable, so a pointer
// identifies fixed content, and because the slot holds the pointer the
// snapshot — an owned one is a single object of header and bytes up to
// 1 112 bytes, and a header holding its bytes past that — cannot be
// garbage-collected and its address cannot be reused while the score is
// cached (a snapshot borrowed from a frame is rekeyed to its owned copy,
// Loan.Settle, before its arena slot is reused); the target is identified by
// (pointer, version) — Profile.Version() bumps on every content mutation —
// so a hit can only return the exact float the metric would recompute. Similarity values are
// therefore bit-identical with the cache on or off, and simulation results do
// not depend on hit patterns. The metric is not part of the key: a view is
// owned by one protocol instance and scored with a single fixed metric for its
// whole lifetime.
type scoreCache struct {
	self    *profile.Profile // target the cached scores are valid against
	version uint64           // self's version when the survivors were ranked
	slots   []scoreSlot      // the survivors; nil until a trim first ranks (RPS views never do)
}

// lookup returns d's score against self: the cached one if d's snapshot
// survived the last trim, else a fresh computation. The caller has dropped
// the slots unless the cache is keyed to self's current version.
func (c *scoreCache) lookup(metric profile.Metric, self *profile.Profile, d Descriptor) float64 {
	for i := range c.slots {
		if c.slots[i].prof == d.Profile {
			return c.slots[i].score
		}
	}
	return metric.SimilarityPacked(self, d.Profile)
}

// keyedTo reports whether the cache currently holds scores against exactly
// this target profile content.
func (c *scoreCache) keyedTo(self *profile.Profile) bool {
	return self != nil && c.self == self && c.version == self.Version()
}

// drop empties the cache, releasing the snapshots it pinned.
func (c *scoreCache) drop() {
	clear(c.slots)
	c.slots, c.self = c.slots[:0], nil
}

// keep replaces the cache with the survivors' scores against self, copied
// out of the ranked scratch into an array of the view's capacity.
func (c *scoreCache) keep(self *profile.Profile, survivors []scored) {
	c.drop()
	if self == nil {
		return
	}
	if c.slots == nil {
		c.slots = make([]scoreSlot, 0, len(survivors))
	}
	for _, r := range survivors {
		c.slots = append(c.slots, scoreSlot{r.d.Profile, r.s})
	}
	c.self, c.version = self, self.Version()
}

// scored pairs a descriptor with its similarity for the trim sort.
type scored struct {
	d Descriptor
	s float64
}

// mergeScratch is the space a merge needs beyond a view's resident array:
// the union of the view and the batch merged into it, and TrimBySimilarity's
// ranked copy of that union. No view keeps it between merges; it is borrowed
// from scratchPool for one merge, so the process holds about one per P rather
// than one per view.
type mergeScratch struct {
	home   []Descriptor // the borrowing view's resident array, emptied, while the union lives here
	union  []Descriptor
	ranked []scored
}

// scratchPool lends merge scratch to every view in the process. A returned
// scratch holds no descriptor: union and ranked are cleared and home is nil.
var scratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// View is a bounded set of descriptors with at most one entry per node. A
// view belongs to one node and is not goroutine-safe; its similarity cache is
// read and replaced by that single owner's trims. Views hold tens of entries,
// so membership is a scan of entries, not an index beside them.
//
// At rest the entries live in one resident array of exactly capacity. The
// first Insert past capacity moves them into a mergeScratch borrowed from
// scratchPool, where the union grows; the next trim copies the survivors back
// into the resident array and returns the scratch. Every mutator leaves
// entries[len:cap] zeroed: a descriptor that left the view must not pin its
// profile snapshot through a backing array.
type View struct {
	capacity int
	entries  []Descriptor  // the resident array, or merge.union while merging
	merge    *mergeScratch // borrowed from an Insert past capacity to the next trim
	cache    scoreCache
}

// NewView returns an empty view bounded to the given capacity.
func NewView(capacity int) *View {
	if capacity < 1 {
		capacity = 1
	}
	return &View{
		capacity: capacity,
		entries:  make([]Descriptor, 0, capacity),
	}
}

// push appends d to the entries, first moving a full resident array into a
// borrowed mergeScratch so the resident array never grows.
func (v *View) push(d Descriptor) {
	if v.merge == nil && len(v.entries) == v.capacity {
		s := scratchPool.Get().(*mergeScratch)
		s.home = v.entries[:0]
		s.union = append(s.union, v.entries...)
		clear(v.entries)
		v.entries, v.merge = s.union, s
	}
	v.entries = append(v.entries, d)
}

// settle ends a merge once the entries fit the capacity again: it copies them
// back into the resident array and returns the scratch.
func (v *View) settle() {
	if v.merge != nil {
		v.release(append(v.merge.home, v.entries...))
	}
}

// release makes home, the resident array refilled with the survivors, the
// view's entries again, clears the union and returns the scratch.
func (v *View) release(home []Descriptor) {
	s := v.merge
	clear(v.entries)
	s.union, s.home = v.entries[:0], nil
	scratchPool.Put(s)
	v.entries, v.merge = home, nil
}

// Capacity returns the view bound.
func (v *View) Capacity() int { return v.capacity }

// Len reports the number of entries currently held.
func (v *View) Len() int { return len(v.entries) }

// find returns the position of the node's descriptor in entries, or -1.
func (v *View) find(id news.NodeID) int {
	for i := range v.entries {
		if v.entries[i].Node == id {
			return i
		}
	}
	return -1
}

// Contains reports whether the view holds a descriptor for the node.
func (v *View) Contains(id news.NodeID) bool { return v.find(id) >= 0 }

// Get returns the descriptor for a node, if present.
func (v *View) Get(id news.NodeID) (Descriptor, bool) {
	if i := v.find(id); i >= 0 {
		return v.entries[i], true
	}
	return Descriptor{}, false
}

// Entries returns a copy of the current entries in insertion order.
func (v *View) Entries() []Descriptor {
	out := make([]Descriptor, len(v.entries))
	copy(out, v.entries)
	return out
}

// ForEach calls fn for every descriptor in insertion order without copying
// the entry slice. fn must not mutate the view.
func (v *View) ForEach(fn func(Descriptor)) {
	for _, d := range v.entries {
		fn(d)
	}
}

// AppendEntries appends the current entries to dst in insertion order and
// returns the extended slice, avoiding the intermediate copy of Entries.
func (v *View) AppendEntries(dst []Descriptor) []Descriptor {
	return append(dst, v.entries...)
}

// Nodes returns the node ids currently in the view, sorted for determinism.
func (v *View) Nodes() []news.NodeID {
	out := make([]news.NodeID, 0, len(v.entries))
	for _, d := range v.entries {
		out = append(out, d.Node)
	}
	slices.Sort(out)
	return out
}

// Insert adds a descriptor, deduplicating by node and keeping the freshest
// copy. Insert does not enforce capacity; call one of the Trim methods after
// a merge, which also returns the scratch an Insert past capacity borrowed.
func (v *View) Insert(d Descriptor) {
	if i := v.find(d.Node); i >= 0 {
		if d.Fresher(v.entries[i]) {
			v.entries[i] = d
		}
		return
	}
	v.push(d)
}

// InsertAll merges a batch of descriptors, skipping any for the excluded
// node (a node never keeps a descriptor of itself).
func (v *View) InsertAll(batch []Descriptor, exclude news.NodeID) {
	for _, d := range batch {
		if d.Node == exclude {
			continue
		}
		v.Insert(d)
	}
}

// InsertAllLive merges a batch like InsertAll but additionally filters out
// descriptors of gracefully departed nodes recorded in the graveyard, so a
// tombstoned peer's stale descriptors in flight cannot re-enter the view.
// With a nil or empty graveyard it is exactly InsertAll.
func (v *View) InsertAllLive(batch []Descriptor, exclude news.NodeID, g *Graveyard) {
	if g == nil || g.Len() == 0 {
		v.InsertAll(batch, exclude)
		return
	}
	for _, d := range batch {
		if d.Node == exclude || g.Contains(d.Node) {
			continue
		}
		v.Insert(d)
	}
}

// InsertAllFromLive is InsertAllLive over src's entries without the caller
// having to copy them first (the per-cycle RPS→WUP candidate injection).
func (v *View) InsertAllFromLive(src *View, exclude news.NodeID, g *Graveyard) {
	v.InsertAllLive(src.entries, exclude, g)
}

// Remove deletes the descriptor for a node, if present.
func (v *View) Remove(id news.NodeID) {
	if i := v.find(id); i >= 0 {
		v.removeAt(i)
	}
}

// removeAt deletes the entry at position i, moving the last one into its place.
func (v *View) removeAt(i int) {
	last := len(v.entries) - 1
	v.entries[i] = v.entries[last]
	v.entries[last] = Descriptor{}
	v.entries = v.entries[:last]
}

// EvictOlderThan removes every descriptor whose generation stamp is strictly
// older than minStamp, preserving the insertion order of the survivors, and
// reports how many entries were dropped. It is the age-based self-healing
// rule of the membership subsystem: live nodes refresh their descriptors
// every gossip exchange, so their stamps keep advancing, while the stamps of
// departed nodes freeze at their departure time and age out of every view
// within one eviction horizon. The scan is deterministic and consumes no
// randomness, so it is safe inside the engine's per-peer phases.
func (v *View) EvictOlderThan(minStamp int64) int {
	kept := v.entries[:0]
	for _, d := range v.entries {
		if d.Stamp >= minStamp {
			kept = append(kept, d)
		}
	}
	evicted := len(v.entries) - len(kept)
	clear(v.entries[len(kept):])
	v.entries = kept
	return evicted
}

// Oldest returns the entry with the oldest generation timestamp (ties broken
// by node id), as both gossip layers periodically contact their oldest
// neighbour to propagate fresh information and flush dead links.
func (v *View) Oldest() (Descriptor, bool) {
	if len(v.entries) == 0 {
		return Descriptor{}, false
	}
	best := 0
	for i := 1; i < len(v.entries); i++ {
		e, b := v.entries[i], v.entries[best]
		if e.Stamp < b.Stamp || (e.Stamp == b.Stamp && e.Node < b.Node) {
			best = i
		}
	}
	return v.entries[best], true
}

// AppendRandomSample appends up to n distinct entries chosen uniformly at
// random to dst and returns the extended slice, drawn by SampleInto.
func (v *View) AppendRandomSample(dst []Descriptor, rng *rand.Rand, n int) []Descriptor {
	n = min(n, len(v.entries))
	dst = slices.Grow(dst, n)
	SampleInto(dst[len(dst):len(dst)+n], v, rng, setDescriptor)
	return dst[:len(dst)+n]
}

// setDescriptor is SampleInto's put for a slice of descriptors.
func setDescriptor(slot *Descriptor, d Descriptor) { *slot = d }

// SampleInto fills dst (len(dst) ≤ v.Len()) with distinct entries of v
// chosen uniformly at random, entry d into slot k as put(&dst[k], d), and
// copies slots whole onto one another. It draws as the first len(dst)
// positions of rng.Perm(v.Len()), one Intn(i+1) per entry, bit-identical to
// the historical Perm-based sampling; the rest of Perm's inside-out shuffle
// never moves a value into that prefix, so dst is the only storage. A dst as
// long as the view takes every entry in order and draws nothing.
func SampleInto[T any](dst []T, v *View, rng *rand.Rand, put func(*T, Descriptor)) {
	if len(dst) == len(v.entries) {
		for i, d := range v.entries {
			put(&dst[i], d)
		}
		return
	}
	for i, d := range v.entries {
		j := rng.Intn(i + 1)
		if i < len(dst) {
			dst[i] = dst[j]
		}
		if j < len(dst) {
			put(&dst[j], d)
		}
	}
}

// RandomSample returns up to n distinct entries chosen uniformly at random.
func (v *View) RandomSample(rng *rand.Rand, n int) []Descriptor {
	return v.AppendRandomSample(make([]Descriptor, 0, min(n, len(v.entries))), rng, n)
}

// TrimRandom drops uniformly random entries until the view respects its
// capacity — the RPS merge rule: keep a random sample of the union (paper
// Section II).
func (v *View) TrimRandom(rng *rand.Rand) {
	for len(v.entries) > v.capacity {
		v.removeAt(rng.Intn(len(v.entries)))
	}
	v.settle()
}

// TrimBySimilarity keeps the capacity entries whose profiles are most
// similar to self according to the metric — the WUP clustering merge rule.
// Ties are broken randomly: during cold start most candidates score zero,
// and a deterministic tie-break would make every node in the system keep
// the same few descriptors, collapsing the overlay into disconnected
// cliques. The rng comes from the owning node, so runs stay reproducible.
//
// The survivors' scores are kept in the view's similarity cache keyed by
// (self, self.Version()): as long as the node's own profile has not changed,
// the resident entries — re-offered on every merge — are not scored again. A
// trim that ranks nothing empties the cache.
//
//whatsup:hotpath
func (v *View) TrimBySimilarity(rng *rand.Rand, metric profile.Metric, self *profile.Profile) {
	if len(v.entries) <= v.capacity {
		v.cache.drop()
		v.settle()
		return
	}
	if !v.cache.keyedTo(self) {
		v.cache.drop()
	}
	s := v.merge // entries past capacity always live in borrowed scratch
	if cap(s.ranked) < len(v.entries) {
		s.ranked = make([]scored, 0, len(v.entries)) //whatsup:alloc pooled scratch sized to the largest merge so far
	}
	ranked := s.ranked[:0]
	for _, d := range v.entries {
		ranked = append(ranked, scored{d, v.cache.lookup(metric, self, d)}) //whatsup:allow:hotalloc capacity reserved above
	}
	//whatsup:allow:hotalloc non-escaping swap closure
	rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	//whatsup:allow:hotalloc non-escaping comparator closure
	slices.SortStableFunc(ranked, func(a, b scored) int {
		switch {
		case a.s > b.s:
			return -1
		case a.s < b.s:
			return 1
		default:
			return 0
		}
	})
	home := s.home
	for _, r := range ranked[:v.capacity] {
		home = append(home, r.d) //whatsup:allow:hotalloc the resident array holds exactly capacity
	}
	v.cache.keep(self, ranked[:v.capacity])
	clear(ranked) // drop descriptor refs held by the scratch backing array
	s.ranked = ranked[:0]
	v.release(home)
}

// MostSimilar returns the entry whose profile is most similar to the target
// profile, used by BEEP's orientation step to route disliked items toward
// the RPS neighbour closest to the item profile (Algorithm 2 line 27).
// Ties are broken by node id. ok is false when the view is empty. Every
// score is computed: the target is a transient item profile, and the
// similarity cache is neither read nor written.
//
//whatsup:hotpath
func (v *View) MostSimilar(metric profile.Metric, target *profile.Profile) (Descriptor, bool) {
	if len(v.entries) == 0 {
		return Descriptor{}, false
	}
	best, bestScore := -1, -1.0
	for i, d := range v.entries {
		s := metric.SimilarityPacked(target, d.Profile)
		if s > bestScore || (s == bestScore && (best < 0 || d.Node < v.entries[best].Node)) {
			best, bestScore = i, s
		}
	}
	return v.entries[best], true
}

// Profiles returns the profile snapshots currently held, used by the
// cold-start procedure to find the most popular items in an inherited view.
func (v *View) Profiles() []*profile.Packed {
	out := make([]*profile.Packed, 0, len(v.entries))
	for _, d := range v.entries {
		out = append(out, d.Profile)
	}
	return out
}
