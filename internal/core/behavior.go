package core

import (
	"whatsup/internal/news"
	"whatsup/internal/profile"
)

// Behavior is the adversarial seam of a node: three hooks placed exactly
// where a node's actions reach the rest of the mesh, so hostile
// implementations (internal/adversary: spam publishers, profile poisoners,
// sybil cohorts) plug into the sim engine, the live runtime and the
// baselines without forking any of them. A node without a behavior (the
// default) is honest, and the hooks cost a single nil check on the hot
// path — zero allocations, pinned by TestHotPathPinned.
//
// Behaviors are consulted from the node's own goroutine/worker only; they
// need no internal synchronization unless instances are shared across nodes
// (the sybil attack shares one, so shared state must be read-only).
type Behavior interface {
	// AdvertisedProfile returns the profile the node gossips in its overlay
	// descriptors in place of the honest user profile — the profile-poisoning
	// hook. user is the node's real profile; honest implementations return it
	// unchanged. Implementations must not mutate user.
	AdvertisedProfile(user *profile.Profile, now int64) *profile.Profile
	// React returns the node's reaction to an item it publishes or receives,
	// given the honest opinion from the trace. Spam amplifiers return true
	// for their cohort's items so BEEP fans them out at full fLIKE fanout.
	React(item news.Item, honest bool) bool
	// OutgoingItem rewrites an item message the moment before BEEP forwards
	// it — the item-profile-poisoning hook. Honest implementations return msg
	// unchanged. msg.Profile may be shared with other paths and must not be
	// written: a poisoned profile is a new one.
	OutgoingItem(msg ItemMessage) ItemMessage
}
