// Package adversary implements the hostile peer behaviors of the robustness
// suite as core.Behavior values: spam amplifiers, profile poisoners, and
// sybil flash-crowds combining both. Each behavior plugs into the sim
// engine, the live runtime and the baseline peers through the same seam
// (core.Substrate.SetBehavior, which every peer type embeds), so an attack
// scenario runs unmodified against every protocol under comparison.
//
// A single behavior instance may be shared by a whole attacker cohort (the
// sybil pattern); all state here is read-only after construction, so no
// synchronization is needed.
package adversary

import (
	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/profile"
)

// Spammer is the spam-amplification attack: cohort members "like" every item
// published by the cohort regardless of the honest opinion, so BEEP (and any
// baseline that forwards on like) fans the spam out at full fLIKE fanout.
// Reactions to items from outside the cohort stay honest — the attacker
// remains a plausible participant, which is what makes the attack cheap.
type Spammer struct {
	// Cohort is the set of attacker node ids whose publications are amplified.
	Cohort map[news.NodeID]bool
}

// AdvertisedProfile implements core.Behavior: spammers gossip their real
// profile (the attack is in the reactions, not the descriptors).
func (s *Spammer) AdvertisedProfile(user *profile.Profile, now int64) *profile.Profile {
	return user
}

// React implements core.Behavior: amplify cohort items, stay honest on the
// rest.
func (s *Spammer) React(item news.Item, honest bool) bool {
	if s.Cohort[item.Source] {
		return true
	}
	return honest
}

// OutgoingItem implements core.Behavior.
func (s *Spammer) OutgoingItem(msg core.ItemMessage) core.ItemMessage { return msg }

// Poisoner is the profile-poisoning attack: the node advertises a fabricated
// profile claiming fresh likes for a chosen set of items, steering the
// similarity-based overlays (WUP clustering, CF neighbourhoods) towards the
// attacker. Reactions and forwarded items stay honest; the lie lives purely
// in the gossiped descriptors.
type Poisoner struct {
	// ClaimLiked is the set of item ids the fabricated profile claims to like.
	ClaimLiked []news.ID
}

// AdvertisedProfile implements core.Behavior: a fresh profile re-stamped at
// the current time so window purging never ages the lie out. Allocating per
// call is fine — only attacker nodes pay it, never the honest hot path.
func (p *Poisoner) AdvertisedProfile(user *profile.Profile, now int64) *profile.Profile {
	fake := profile.New()
	for _, id := range p.ClaimLiked {
		fake.Set(id, now, 1)
	}
	return fake
}

// React implements core.Behavior.
func (p *Poisoner) React(item news.Item, honest bool) bool { return honest }

// OutgoingItem implements core.Behavior.
func (p *Poisoner) OutgoingItem(msg core.ItemMessage) core.ItemMessage { return msg }

// Sybil combines spam amplification with profile poisoning: the flash-crowd
// cohort amplifies its own publications and simultaneously advertises
// poisoned profiles to pull honest WUP views towards the cohort, maximizing
// the spam's fanout surface. One Sybil instance is shared by the whole
// cohort.
type Sybil struct {
	Spammer
	Poison Poisoner
}

// AdvertisedProfile implements core.Behavior, delegating to the poisoner.
func (s *Sybil) AdvertisedProfile(user *profile.Profile, now int64) *profile.Profile {
	return s.Poison.AdvertisedProfile(user, now)
}

// CohortSize is how many of a population of peers Cohort picks:
// floor(frac*peers), at most everybody.
func CohortSize(peers int, frac float64) int {
	return min(int(frac*float64(peers)), peers)
}

// Cohort returns the first CohortSize node ids as the attacker cohort set —
// the deterministic cohort picker the experiments and tests share. ids is
// not mutated.
func Cohort(ids []news.NodeID, frac float64) map[news.NodeID]bool {
	n := CohortSize(len(ids), frac)
	cohort := make(map[news.NodeID]bool, n)
	for _, id := range ids[:n] {
		cohort[id] = true
	}
	return cohort
}
