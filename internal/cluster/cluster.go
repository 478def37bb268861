// Package cluster implements the upper gossip layer of WUP (paper
// Section II): a clustering protocol in the style of Voulgaris & van Steen's
// Vicinity that keeps, for each node, the WUPvs neighbours whose profiles
// are most similar to its own according to a pluggable metric (the WUP
// metric in WhatsUp, cosine in the WhatsUp-Cos and CF-Cos baselines).
//
// Periodically a node selects the view entry with the oldest timestamp and
// sends it its profile together with its *entire* view (unlike the RPS,
// which sends half). The receiver keeps, from the union of its own and the
// received view, the entries whose profiles are closest to its own. The
// layer additionally pulls candidates from the RPS view each cycle, which is
// what lets interests discovered by random sampling enter the social
// network.
//
// Protocol state is not goroutine-safe; engines serialize access per node.
package cluster

import (
	"math/rand"
	"slices"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// Protocol is the per-node clustering state machine.
type Protocol struct {
	self   news.NodeID
	metric profile.Metric
	view   *overlay.View
	rng    *rand.Rand
	grave  *overlay.Graveyard // optional departure-notice filter (may be nil)
}

// SetGraveyard attaches the node's departure-tombstone set: merges then skip
// descriptors of gracefully departed peers until their tombstones expire.
func (p *Protocol) SetGraveyard(g *overlay.Graveyard) { p.grave = g }

// New returns a clustering instance for node self with the given view size
// (WUPvs, set to 2·fLIKE in the paper) and similarity metric. The string
// parameter is ignored: descriptors carry no address.
func New(self news.NodeID, _ string, viewSize int, metric profile.Metric, rng *rand.Rand) *Protocol {
	return &Protocol{
		self:   self,
		metric: metric,
		view:   overlay.NewView(viewSize),
		rng:    rng,
	}
}

// View exposes the underlying view; descriptors are immutable.
func (p *Protocol) View() *overlay.View { return p.view }

// Seed bootstraps the view (initial random graph, or the inherited view of a
// cold-starting node, Section II-D). Entries are kept by similarity to own.
func (p *Protocol) Seed(descs []overlay.Descriptor, own *profile.Profile) {
	p.view.InsertAllLive(descs, p.self, p.grave)
	p.view.TrimBySimilarity(p.rng, p.metric, own)
}

// Descriptor builds the node's own fresh descriptor with the profile packed
// into a new snapshot, one allocation per call up to 1 112 bytes. A node's
// descriptors come from its RPS layer instead (core.Substrate.Descriptor),
// which snapshots once per profile version.
func (p *Protocol) Descriptor(now int64, prof *profile.Profile) overlay.Descriptor {
	return overlay.Descriptor{Node: p.self, Stamp: now, Profile: prof.Snapshot()}
}

// SelectPeer returns the view entry with the oldest timestamp.
func (p *Protocol) SelectPeer() (overlay.Descriptor, bool) {
	return p.view.Oldest()
}

// AppendPush appends the request payload to dst: the node's fresh
// descriptor plus its entire view (Section II: "its entire view for WUP").
//
//whatsup:hotpath
func (p *Protocol) AppendPush(dst []overlay.Descriptor, self overlay.Descriptor) []overlay.Descriptor {
	dst = slices.Grow(dst, p.view.Len()+1)
	dst = append(dst, self) //whatsup:alloc arena growth, decided by the Grow above: none once dst has the room
	return p.view.AppendEntries(dst)
}

// AppendReply handles an exchange request at the responder: it appends the
// symmetric reply (own descriptor + entire view, taken before merging) to
// dst and merges the received entries, keeping the most similar ones.
//
//whatsup:hotpath
func (p *Protocol) AppendReply(dst, push []overlay.Descriptor, self overlay.Descriptor, own *profile.Profile) (reply []overlay.Descriptor) {
	reply = p.AppendPush(dst, self)
	p.Merge(push, own)
	return reply
}

// MakePush is AppendPush into a new slice.
func (p *Protocol) MakePush(self overlay.Descriptor) []overlay.Descriptor {
	return p.AppendPush(nil, self)
}

// AcceptPush is AppendReply into a new slice.
func (p *Protocol) AcceptPush(push []overlay.Descriptor, self overlay.Descriptor, own *profile.Profile) (reply []overlay.Descriptor) {
	return p.AppendReply(nil, push, self, own)
}

// AcceptReply merges the responder's entries at the initiator.
func (p *Protocol) AcceptReply(reply []overlay.Descriptor, own *profile.Profile) {
	p.Merge(reply, own)
}

// Merge folds candidate descriptors into the view, keeping the capacity
// entries most similar to the node's own profile. Used for gossip pushes
// and replies.
func (p *Protocol) Merge(candidates []overlay.Descriptor, own *profile.Profile) {
	p.view.InsertAllLive(candidates, p.self, p.grave)
	p.view.TrimBySimilarity(p.rng, p.metric, own)
}

// MergeFrom folds every entry of another view into this one — the per-cycle
// injection of RPS candidates — without copying the source entries first.
func (p *Protocol) MergeFrom(src *overlay.View, own *profile.Profile) {
	p.view.InsertAllFromLive(src, p.self, p.grave)
	p.view.TrimBySimilarity(p.rng, p.metric, own)
}

// RandomTargets addresses every slot of dst to a distinct random member of
// p's view, member d into slot k as put(&dst[k], d) — BEEP's amplification
// step for liked items picks targets randomly from the WUP view rather than
// the closest ones, to avoid over-clustering (Algorithm 2 line 31). The
// caller sizes dst to min(fLIKE, view size), so the targets are drawn
// straight into its own slice and the protocol keeps no buffer. It is a
// function because Go methods take no type parameters.
func RandomTargets[T any](p *Protocol, dst []T, put func(*T, overlay.Descriptor)) {
	overlay.SampleInto(dst, p.view, p.rng, put)
}

// AverageSimilarity reports the mean similarity between the given profile
// and the current view members, the convergence measure of Figure 7.
func (p *Protocol) AverageSimilarity(own *profile.Profile) float64 {
	if p.view.Len() == 0 {
		return 0
	}
	var sum float64
	p.view.ForEach(func(d overlay.Descriptor) {
		sum += p.metric.SimilarityPacked(own, d.Profile)
	})
	return sum / float64(p.view.Len())
}

// EvictOlderThan drops view entries whose descriptors are older than
// minStamp. The clustering view needs this even more than the RPS: its
// similarity-based trim would otherwise keep a well-matching ghost forever,
// because nothing in the merge rule ever demotes a high-similarity entry of
// a node that no longer exists. Reports how many entries were evicted.
func (p *Protocol) EvictOlderThan(minStamp int64) int {
	return p.view.EvictOlderThan(minStamp)
}

// Crash clears the view for failure-injection tests.
func (p *Protocol) Crash() {
	p.view = overlay.NewView(p.view.Capacity())
}
