package core

import (
	"math/rand"

	"whatsup/internal/cluster"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/prng"
	"whatsup/internal/profile"
	"whatsup/internal/rps"
)

// Layer names one of the substrate's two push-pull gossip exchanges.
type Layer uint8

const (
	// RPSLayer is the random-peer-sampling exchange: the fresh self-descriptor
	// plus half the view, merged by a random trim.
	RPSLayer Layer = iota
	// WUPLayer is the clustering exchange: the fresh self-descriptor plus the
	// whole view, merged by similarity to the user profile.
	WUPLayer
)

// Substrate is the WUP gossip substrate of paper Section II, and every rule
// of it that is not dissemination policy: a node identity and user profile,
// the RPS layer, an optional clustering layer, the departure graveyard both
// layers filter through, the adversarial behaviour seam, and the legs of the
// RPS, WUP and refill exchanges. A peer type embeds it and adds only Publish,
// Receive and its forwarding rule; a runtime drives the legs and keeps only
// what is its own (phase order, loss, wire accounting, goroutines).
//
// Substrate methods are not goroutine-safe; runtimes serialize access per
// node.
type Substrate struct {
	id       news.NodeID
	cfg      Config
	user     *profile.Profile // P̃, the user profile
	rps      *rps.Protocol
	wup      *cluster.Protocol  // nil: no clustering layer
	grave    *overlay.Graveyard // departure tombstones shared by both layers
	rng      *rand.Rand         // the peer's one generator, 8 bytes of state
	behavior Behavior           // adversarial seam; nil = honest
}

// NewSubstrate builds a substrate from cfg taken literally (no defaults):
// RPSViewSize sizes the random sample, a zero WUPViewSize means no clustering
// layer at all (homogeneous gossip), a zero ProfileWindow means the profile
// is never purged, and DescriptorTTL and the notice piggyback cap keep their
// Config meaning. addr is the transport address live runtimes gossip. The
// returned value is meant to be embedded, once.
//
// rng is read once and not retained: one Uint64 from it seeds the substrate's
// own splitmix64 stream (Rand), which drives both layers and whatever the
// embedder draws. The generator is a property of the peer, so a caller's
// 4.9 KB math/rand.NewSource state is garbage as soon as the peer exists.
func NewSubstrate(id news.NodeID, addr string, cfg Config, rng *rand.Rand) Substrate {
	own := prng.New(rng.Uint64())
	s := Substrate{
		id:    id,
		cfg:   cfg,
		user:  profile.New(),
		rps:   rps.New(id, addr, cfg.RPSViewSize, own),
		grave: new(overlay.Graveyard),
		rng:   own,
	}
	s.rps.SetGraveyard(s.grave)
	if cfg.WUPViewSize > 0 {
		s.wup = cluster.New(id, addr, cfg.WUPViewSize, cfg.Metric, own)
		s.wup.SetGraveyard(s.grave)
	}
	return s
}

// Overlay returns the substrate itself. Promoted through embedding, it is how
// a runtime reaches the shared rules of any peer type behind an interface.
func (s *Substrate) Overlay() *Substrate { return s }

// Rand returns the peer's generator: the only one a peer type embedding the
// substrate needs, and the only one it should keep.
func (s *Substrate) Rand() *rand.Rand { return s.rng }

// ID returns the node identifier.
func (s *Substrate) ID() news.NodeID { return s.id }

// Config returns the configuration the substrate was built with.
func (s *Substrate) Config() Config { return s.cfg }

// UserProfile returns the node's user profile P̃. Callers must not mutate it
// concurrently with node handlers.
func (s *Substrate) UserProfile() *profile.Profile { return s.user }

// RPS returns the random-peer-sampling layer.
func (s *Substrate) RPS() *rps.Protocol { return s.rps }

// WUP returns the clustering layer, nil when the substrate has none.
func (s *Substrate) WUP() *cluster.Protocol { return s.wup }

// Has reports whether the substrate runs the given layer.
func (s *Substrate) Has(l Layer) bool { return l == RPSLayer || s.wup != nil }

// SetBehavior attaches (or, with nil, detaches) the node's behavior. Call
// before the node starts participating; runtimes never synchronize this.
func (s *Substrate) SetBehavior(b Behavior) { s.behavior = b }

// Behavior returns the attached behavior (nil for an honest node).
func (s *Substrate) Behavior() Behavior { return s.behavior }

// AdvertisedProfile returns the profile this node advertises in gossip
// descriptors: the user profile for honest nodes, the behavior's fabrication
// otherwise. Every outgoing descriptor is built from it, which is what makes
// profile poisoning possible without forking a runtime.
func (s *Substrate) AdvertisedProfile(now int64) *profile.Profile {
	if s.behavior != nil {
		return s.behavior.AdvertisedProfile(s.user, now)
	}
	return s.user
}

// Descriptor builds the node's fresh self-descriptor: a snapshot of the
// advertised profile stamped now.
func (s *Substrate) Descriptor(now int64) overlay.Descriptor {
	return s.rps.Descriptor(now, s.AdvertisedProfile(now))
}

// SeedViews bootstraps the views (a runtime-provided initial random graph).
func (s *Substrate) SeedViews(descs []overlay.Descriptor) {
	s.rps.Seed(descs)
	if s.wup != nil {
		s.wup.Seed(descs, s.user)
	}
}

// BeginCycle runs the periodic maintenance that precedes gossiping: purging
// the user profile of entries older than the profile window (Section II-E),
// evicting view descriptors older than the DescriptorTTL horizon so departed
// nodes age out of both overlays, and expiring departure tombstones.
func (s *Substrate) BeginCycle(now int64) {
	s.purgeProfile(now)
	s.evictStale(now)
	if s.grave.Len() > 0 {
		s.grave.ExpireOlderThan(now - s.departureHorizon())
	}
}

func (s *Substrate) purgeProfile(now int64) {
	if s.cfg.ProfileWindow > 0 {
		s.user.PurgeOlderThan(now - s.cfg.ProfileWindow)
	}
}

// evictStale applies the DescriptorTTL horizon to both views as of the
// node's own clock. BeginCycle runs it once a cycle; every accept leg runs it
// again after merging, because a sender whose clock lags (a tick-starved live
// node gossiping a view it has not purged yet) would otherwise re-seed
// descriptors of departed members into a view that had already healed. Under
// the simulator's barrier-aligned cycles every descriptor on the wire has
// passed its sender's BeginCycle at the same now, so the accept-time pass
// finds nothing — one rule, and a no-op where clocks agree.
func (s *Substrate) evictStale(now int64) {
	if s.cfg.DescriptorTTL <= 0 {
		return
	}
	s.rps.EvictOlderThan(now - s.cfg.DescriptorTTL)
	if s.wup != nil {
		s.wup.EvictOlderThan(now - s.cfg.DescriptorTTL)
	}
}

// departureHorizon is how long a departure tombstone stays active: the view
// eviction horizon when one is configured (after which TTL eviction would
// have flushed the leaver anyway), the profile window otherwise.
func (s *Substrate) departureHorizon() int64 {
	if s.cfg.DescriptorTTL > 0 {
		return s.cfg.DescriptorTTL
	}
	return s.cfg.ProfileWindow
}

// NoteDeparture records a departure notice: the leaver is evicted from both
// views immediately and a tombstone keeps its stale descriptors from
// re-entering them (and keeps the notice propagating on this node's own
// gossip) for one horizon. Expired or self-referential notices are ignored.
func (s *Substrate) NoteDeparture(t overlay.Tombstone, now int64) {
	if t.Node == s.id || t.Stamp < now-s.departureHorizon() {
		return
	}
	s.grave.Note(t)
	s.rps.View().Remove(t.Node)
	if s.wup != nil {
		s.wup.View().Remove(t.Node)
	}
}

// AppendTombstones appends the node's active departure tombstones to dst in
// deterministic (node id) order — the piggyback payload its outgoing gossip
// carries so departure notices flood one neighbourhood horizon. When
// the config's piggyback cap is set and the set is larger, only that many of
// the freshest ride along (TTL eviction backstops the rest).
func (s *Substrate) AppendTombstones(dst []overlay.Tombstone) []overlay.Tombstone {
	return s.grave.AppendFreshest(dst, s.cfg.noticePiggybackCap)
}

// InjectRPSCandidates feeds the current RPS view into the clustering layer,
// which is how randomly sampled nodes become social-network candidates
// (Section II: the clustering protocol "uses this overlay to provide nodes
// with the most similar candidates"). A no-op without a clustering layer.
func (s *Substrate) InjectRPSCandidates() {
	if s.wup != nil {
		s.wup.MergeFrom(s.rps.View(), s.user)
	}
}

// MakePush opens this cycle's exchange on a layer the substrate Has: the
// oldest view entry is the target, the payload is the fresh self-descriptor
// plus the layer's share of the view, and the node's active tombstones ride
// along. ok is false while the view is empty.
func (s *Substrate) MakePush(l Layer, now int64) (target news.NodeID, push []overlay.Descriptor, tombs []overlay.Tombstone, ok bool) {
	var t overlay.Descriptor
	if l == WUPLayer {
		t, ok = s.wup.SelectPeer()
	} else {
		t, ok = s.rps.SelectPeer()
	}
	if !ok {
		return 0, nil, nil, false
	}
	if l == WUPLayer {
		push = s.wup.MakePush(s.Descriptor(now))
	} else {
		push = s.rps.MakePush(s.Descriptor(now))
	}
	return t.Node, push, s.AppendTombstones(nil), true
}

// AcceptPush answers an exchange request at the responder. Piggybacked
// tombstones are absorbed before anything else, so the reply is sampled from
// the post-eviction view and the push cannot re-insert a tombstoned
// descriptor it carries; the reply takes the node's own tombstones back.
func (s *Substrate) AcceptPush(l Layer, push []overlay.Descriptor, tombs []overlay.Tombstone, now int64) (reply []overlay.Descriptor, replyTombs []overlay.Tombstone) {
	s.absorb(tombs, now)
	return s.respond(l, push, now), s.AppendTombstones(nil)
}

// AcceptReply merges the responder's answer at the initiator, tombstones
// first.
func (s *Substrate) AcceptReply(l Layer, reply []overlay.Descriptor, tombs []overlay.Tombstone, now int64) {
	s.absorb(tombs, now)
	if l == WUPLayer {
		s.wup.AcceptReply(reply, s.user)
	} else {
		s.rps.AcceptReply(reply)
	}
	s.evictStale(now)
}

func (s *Substrate) absorb(tombs []overlay.Tombstone, now int64) {
	for _, t := range tombs {
		s.NoteDeparture(t, now)
	}
}

// respond builds the symmetric reply from the pre-merge view, merges the
// received descriptors and re-applies the eviction horizon. In the WUP layer
// the reply's self-descriptor carries the advertised profile while the
// similarity ranking of the merge uses the real one (it is the responder's
// private state, not wire payload).
func (s *Substrate) respond(l Layer, push []overlay.Descriptor, now int64) (reply []overlay.Descriptor) {
	if l == WUPLayer {
		reply = s.wup.AcceptPush(push, s.Descriptor(now), s.user)
	} else {
		reply = s.rps.AcceptPush(push, s.Descriptor(now))
	}
	s.evictStale(now)
	return reply
}

// Held answers a decoder (overlay.Holder) from the node's own state, for an
// incoming descriptor (node, stamp) bound for a merge into the RPS view, the
// clustering view, or both (a refill reply). discard is true when every merge
// the descriptor is bound for would drop it — it describes this node, a
// tombstoned node, or a node the view holds at the same or a fresher stamp,
// exactly the descriptors InsertAllLive ignores — so that it need not be
// built at all. Otherwise snap is a descriptor either view holds for the
// node, preferring one with the same stamp: such a snapshot, gossiped to this
// node on the other layer, is shared rather than decoded again.
func (s *Substrate) Held(node news.NodeID, stamp int64, intoRPS, intoWUP bool) (snap overlay.Descriptor, discard bool) {
	if node == s.id || s.grave.Contains(node) {
		return overlay.Descriptor{}, true
	}
	r, inRPS := s.rps.View().Get(node)
	var w overlay.Descriptor
	inWUP := false
	if s.wup != nil {
		w, inWUP = s.wup.View().Get(node)
	}
	if (!intoRPS || inRPS && r.Stamp >= stamp) && (!intoWUP || s.wup == nil || inWUP && w.Stamp >= stamp) {
		return overlay.Descriptor{}, true
	}
	if inWUP && (!inRPS || w.Stamp == stamp) {
		return w, false
	}
	return r, false // the zero Descriptor when neither view holds the node
}

// low reports whether a view's occupancy is under the refill watermark.
func low(v *overlay.View, watermark float64) bool {
	return float64(v.Len()) < watermark*float64(v.Capacity())
}

func (s *Substrate) wupLow(watermark float64) bool {
	return s.wup != nil && low(s.wup.View(), watermark)
}

// RefillTarget is the adaptive anti-entropy decision of the churn protocol:
// when either view's occupancy has fallen under the watermark fraction of its
// capacity (churn evicted more neighbours than gossip replaced), the node
// pulls from the freshest neighbour it still knows across both views — the
// most recently stamped descriptor is the one most likely to belong to a node
// that is still alive. ok is false when no refill is due or the node is fully
// isolated. The request is the node's Descriptor; refill legs carry no
// tombstones.
func (s *Substrate) RefillTarget(watermark float64) (target news.NodeID, ok bool) {
	if !low(s.rps.View(), watermark) && !s.wupLow(watermark) {
		return 0, false
	}
	var best overlay.Descriptor
	scan := func(d overlay.Descriptor) {
		if !ok || d.Fresher(best) {
			best, ok = d, true
		}
	}
	s.rps.View().ForEach(scan)
	if s.wup != nil {
		s.wup.View().ForEach(scan)
	}
	return best.Node, ok
}

// AcceptRefill answers a refill request with an RPS-style exchange (own fresh
// descriptor plus half the view), merging the puller's descriptor.
func (s *Substrate) AcceptRefill(req []overlay.Descriptor, now int64) (reply []overlay.Descriptor) {
	return s.respond(RPSLayer, req, now)
}

// AcceptRefillReply merges a refill reply at the puller: always into the RPS
// view, and into the clustering view only while that view is itself under
// the watermark.
func (s *Substrate) AcceptRefillReply(reply []overlay.Descriptor, watermark float64, now int64) {
	s.rps.AcceptReply(reply)
	if s.wupLow(watermark) {
		s.wup.Merge(reply, s.user)
	}
	s.evictStale(now)
}

// FarewellRecipients lists who a graceful leaver notifies, while its views
// still exist: its RPS then its WUP neighbours in view order, each once.
func (s *Substrate) FarewellRecipients() []news.NodeID {
	var out []news.NodeID
	s.rps.View().ForEach(func(d overlay.Descriptor) { out = append(out, d.Node) })
	if s.wup != nil {
		s.wup.View().ForEach(func(d overlay.Descriptor) {
			if !s.rps.View().Contains(d.Node) {
				out = append(out, d.Node)
			}
		})
	}
	return out
}

// Crash wipes the node's volatile overlay state (views and tombstones),
// modelling an abrupt failure; the user profile survives as it is local
// durable state in the prototype. A crashed node may later Rejoin.
func (s *Substrate) Crash() {
	s.rps.Crash()
	if s.wup != nil {
		s.wup.Crash()
	}
	s.grave.Clear()
}

// Leave is the graceful departure: the node stops participating and drops
// its view state. Unlike Crash it is final — the membership layer marks the
// node departed and its descriptors age out of the remaining population's
// views within one eviction horizon (Config.DescriptorTTL).
func (s *Substrate) Leave() { s.Crash() }

// Rejoin resumes a crashed node: its views were wiped with the crash, so it
// re-seeds them from the supplied bootstrap descriptors (a sample of the
// currently online population). The user profile was retained across the
// downtime but is purged to the window at the resume time, so a node that
// stayed down longer than a profile window resumes with an empty profile
// exactly like the inactive-node scenario of Section II-E.
func (s *Substrate) Rejoin(bootstrap []overlay.Descriptor, now int64) {
	s.Crash()
	s.purgeProfile(now)
	s.SeedViews(bootstrap)
}
