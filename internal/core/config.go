// Package core implements the paper's primary contribution in two pieces.
//
// Substrate is the WUP implicit social network of Section II as one type: a
// user profile, the RPS layer, an optional clustering layer, the departure
// graveyard and every overlay rule that is not dissemination policy — cycle
// maintenance, the advertised profile, seed/crash/leave/rejoin, departure
// notices, and the make-push / accept-push / accept-reply legs of the RPS,
// WUP and refill exchanges. Each rule exists once, here.
//
// A peer type is a Substrate plus a forwarding policy: Node embeds it and
// adds BEEP, the biased epidemic dissemination protocol of Section III
// (Publish, Receive, forward) and the Section II-D cold start;
// internal/baselines embeds the same substrate under other forwarding rules.
//
// Both are runtime-agnostic: a leg takes a message and returns what to send.
// The deterministic simulator (internal/sim) and the concurrent live
// runtimes (internal/live) drive the same legs and own only scheduling,
// loss, accounting and transport.
package core

import "whatsup/internal/profile"

// Default parameter values from Table II of the paper.
const (
	DefaultRPSViewSize   = 30 // RPSvs: size of the random sample
	DefaultFLike         = 10 // fLIKE: amplification fanout (best survey trade-off, Table III)
	DefaultDislikeTTL    = 4  // BEEP TTL: dissemination TTL for disliked items
	DefaultProfileWindow = 13 // profile window in gossip cycles (1/5 of the experiment)

	// DefaultBootstrapDegree is the number of random contacts whose
	// descriptors seed each node's views before the first cycle (and a
	// joiner's or rejoiner's views later), in the simulator and the live
	// runtime alike.
	DefaultBootstrapDegree = 5

	// DefaultDescriptorTTL is the view eviction horizon the churn scenarios
	// use when none is configured. It is the single shared default for the
	// simulator and the live runtime — the two previously defaulted to 15 and
	// 8 cycles respectively, silently skewing sim-vs-live comparisons. Note
	// Config.WithDefaults deliberately does NOT apply it: a zero DescriptorTTL
	// means eviction disabled (the static-population default that keeps
	// churn-free runs bit-identical with historical results); churn drivers
	// opt in explicitly.
	DefaultDescriptorTTL = 15

	// LargeScalePopulation is the population at which ForPopulation starts
	// bounding scale-sensitive knobs, and at which the simulator switches to
	// O(k) sampling: everything the paper validated runs far below it.
	LargeScalePopulation = 100_000

	// LargeScaleNoticeCap is the notice piggyback cap ForPopulation applies
	// above LargeScalePopulation: 64 tombstones comfortably cover one
	// eviction horizon of departures in any neighbourhood while keeping the
	// piggyback O(1) per message instead of O(departures).
	LargeScaleNoticeCap = 64
)

// Config collects the per-node parameters of Table II.
type Config struct {
	// RPSViewSize is RPSvs, the size of the random peer sample (default 30).
	RPSViewSize int
	// WUPViewSize is WUPvs, the size of the social network view. Zero means
	// the paper's setting of 2·FLike, the best precision/recall trade-off
	// (Section IV-D).
	WUPViewSize int
	// FLike is BEEP's amplification fanout for liked items.
	FLike int
	// DislikeTTL bounds how many times a disliked item may be forwarded
	// along the dislike path. Zero means the default of 4; use a negative
	// value for an explicit TTL of zero (no dislike forwarding at all), as
	// in the Figure 5 sweep.
	DislikeTTL int
	// ProfileWindow is the sliding window, in gossip cycles, beyond which
	// profile entries are purged. It also bounds the SIR set: a node forgets
	// the items created before the window and drops any such item it
	// receives as a duplicate.
	ProfileWindow int64
	// Metric ranks clustering candidates and orients disliked items.
	// Nil means the WUP metric; the WhatsUp-Cos variant of the evaluation
	// sets profile.Cosine.
	Metric profile.Metric
	// DescriptorTTL is the view eviction horizon, in gossip cycles like
	// ProfileWindow (the live runtime's clock counts cycles too): at the
	// start of each cycle the node drops every RPS and WUP view entry whose
	// descriptor stamp is older than now-DescriptorTTL. Live nodes refresh
	// their descriptors every exchange, so only descriptors of departed (or
	// long-partitioned) nodes age past the horizon — this is what lets views
	// self-heal under churn instead of gossiping ghosts forever. Zero or
	// negative disables eviction (the static-population default, which keeps
	// churn-free runs bit-identical with historical results).
	DescriptorTTL int64

	// noticePiggybackCap bounds how many departure tombstones one outgoing
	// gossip message carries (freshest first). Zero or negative means all
	// active tombstones — the graveyard is already bounded by the departure
	// rate over one eviction horizon, and full flooding is what scrubs
	// ghosts fastest. ForPopulation sets it at very large scale, where
	// horizon × rate makes the piggyback the dominant message cost; anything
	// the cap drops still ages out through DescriptorTTL eviction.
	noticePiggybackCap int
}

// WithDefaults returns a copy of c with unset fields replaced by the
// paper's defaults (Table II).
func (c Config) WithDefaults() Config {
	if c.RPSViewSize <= 0 {
		c.RPSViewSize = DefaultRPSViewSize
	}
	if c.FLike <= 0 {
		c.FLike = DefaultFLike
	}
	if c.WUPViewSize <= 0 {
		c.WUPViewSize = 2 * c.FLike
	}
	if c.DislikeTTL < 0 {
		c.DislikeTTL = 0
	} else if c.DislikeTTL == 0 {
		c.DislikeTTL = DefaultDislikeTTL
	}
	if c.ProfileWindow <= 0 {
		c.ProfileWindow = DefaultProfileWindow
	}
	if c.Metric == nil {
		c.Metric = profile.WUP{}
	}
	return c
}

// ForPopulation returns a copy of c with scale-sensitive knobs bounded for a
// deployment of n peers. Today that is one knob: above LargeScalePopulation
// the notice piggyback is capped at LargeScaleNoticeCap, because uncapped
// tombstone piggyback grows with the departure volume of the whole horizon —
// negligible at the paper's 5k scale, the dominant gossip cost in a
// million-peer flash crowd. At or below the threshold (or with the cap
// already set) the config is returned unchanged, byte-identical, so every
// validated small-scale result is unaffected.
func (c Config) ForPopulation(n int) Config {
	if n >= LargeScalePopulation && c.noticePiggybackCap == 0 {
		c.noticePiggybackCap = LargeScaleNoticeCap
	}
	return c
}
