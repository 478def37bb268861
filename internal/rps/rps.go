// Package rps implements the random-peer-sampling layer of WUP (paper
// Section II), after Jelasity et al., "Gossip-based peer sampling", ACM TOCS
// 2007. It maintains a continuously changing random view of the network that
// (i) keeps the overlay connected, (ii) feeds the clustering layer with
// fresh candidates, and (iii) provides BEEP's dislike orientation with a
// random sample to search for the node closest to an item profile.
//
// The protocol is push-pull: periodically a node selects the entry with the
// oldest timestamp in its view and sends it its own fresh descriptor along
// with half of its view; the receiver replies symmetrically and both sides
// renew their views by keeping a random sample of the union of their own and
// the received entries.
//
// Protocol state is not goroutine-safe; engines serialize access per node
// (the simulator runs nodes sequentially, the live runtime wraps each node
// in a single goroutine).
package rps

import (
	"math/rand"
	"slices"
	"sync"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// Protocol is the per-node RPS state machine.
type Protocol struct {
	self  news.NodeID
	view  *overlay.View
	rng   *rand.Rand
	grave *overlay.Graveyard // optional departure-notice filter (may be nil)

	// Descriptor's snapshot: packed is prof packed at version. Holding prof
	// keeps its address from being reused while it is the key. mu guards the
	// three: the parallel bootstrap asks idle peers for descriptors from
	// several workers at once.
	mu      sync.Mutex
	prof    *profile.Profile
	version uint64
	packed  *profile.Packed
}

// SetGraveyard attaches the node's departure-tombstone set: merges then skip
// descriptors of gracefully departed peers until their tombstones expire.
func (p *Protocol) SetGraveyard(g *overlay.Graveyard) { p.grave = g }

// New returns an RPS instance for node self with the given view size
// (RPSvs, 30 in the paper). The string parameter is ignored: descriptors
// carry no address.
func New(self news.NodeID, _ string, viewSize int, rng *rand.Rand) *Protocol {
	return &Protocol{self: self, view: overlay.NewView(viewSize), rng: rng}
}

// View exposes the underlying view. Callers must treat returned descriptors
// as immutable.
func (p *Protocol) View() *overlay.View { return p.view }

// Seed bootstraps the view with initial descriptors (engine-provided random
// graph, or the inherited view of a cold-starting node, Section II-D).
func (p *Protocol) Seed(descs []overlay.Descriptor) {
	p.view.InsertAllLive(descs, p.self, p.grave)
	p.view.TrimRandom(p.rng)
}

// Descriptor builds this node's own fresh descriptor: the profile packed
// into an immutable snapshot, stamped now, so later profile mutations do not
// alter descriptors already gossiped away. The snapshot is packed once per
// (profile, Version()) and shared by every descriptor built until either
// changes. Unlike the rest of the protocol, Descriptor may be called from
// several goroutines at once, as long as nothing mutates prof meanwhile.
func (p *Protocol) Descriptor(now int64, prof *profile.Profile) overlay.Descriptor {
	p.mu.Lock()
	defer p.mu.Unlock()
	if prof != p.prof || prof.Version() != p.version || p.packed == nil {
		p.prof, p.version, p.packed = prof, prof.Version(), prof.Snapshot()
	}
	return overlay.Descriptor{Node: p.self, Stamp: now, Profile: p.packed}
}

// SelectPeer returns the view entry with the oldest timestamp, the exchange
// target for this cycle. ok is false while the view is empty.
func (p *Protocol) SelectPeer() (overlay.Descriptor, bool) {
	return p.view.Oldest()
}

// AppendPush appends the request payload to dst: the node's fresh
// descriptor plus a random half of its view (the typical parameter in such
// protocols, Section II).
//
//whatsup:hotpath
func (p *Protocol) AppendPush(dst []overlay.Descriptor, self overlay.Descriptor) []overlay.Descriptor {
	half := p.view.Len() / 2
	dst = slices.Grow(dst, half+1)
	dst = append(dst, self) //whatsup:alloc arena growth, decided by the Grow above: none once dst has the room
	return p.view.AppendRandomSample(dst, p.rng, half)
}

// AppendReply handles an incoming exchange request at the responder: it
// appends the symmetric reply (own fresh descriptor plus half the view,
// sampled before merging) to dst and then merges the received entries.
//
//whatsup:hotpath
func (p *Protocol) AppendReply(dst, push []overlay.Descriptor, self overlay.Descriptor) (reply []overlay.Descriptor) {
	reply = p.AppendPush(dst, self)
	p.merge(push)
	return reply
}

// MakePush is AppendPush into a new slice.
func (p *Protocol) MakePush(self overlay.Descriptor) []overlay.Descriptor {
	return p.AppendPush(nil, self)
}

// AcceptPush is AppendReply into a new slice.
func (p *Protocol) AcceptPush(push []overlay.Descriptor, self overlay.Descriptor) (reply []overlay.Descriptor) {
	return p.AppendReply(nil, push, self)
}

// AcceptReply merges the responder's entries at the initiator.
func (p *Protocol) AcceptReply(reply []overlay.Descriptor) {
	p.merge(reply)
}

// merge renews the view with a random sample of the union of the current
// view and the received descriptors.
func (p *Protocol) merge(received []overlay.Descriptor) {
	p.view.InsertAllLive(received, p.self, p.grave)
	p.view.TrimRandom(p.rng)
}

// EvictOlderThan drops view entries whose descriptors are older than
// minStamp — the age-based self-healing rule that flushes descriptors of
// departed nodes (their stamps stop advancing once they leave). Reports how
// many entries were evicted.
func (p *Protocol) EvictOlderThan(minStamp int64) int {
	return p.view.EvictOlderThan(minStamp)
}

// Crash clears the view, used by failure-injection tests to model a node
// that lost its state.
func (p *Protocol) Crash() {
	p.view = overlay.NewView(p.view.Capacity())
}
