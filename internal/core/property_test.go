package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

// TestBEEPSendBounds: whatever the node state and message, BEEP never sends
// more than fLIKE copies of a liked item nor more than one copy of a
// disliked item, and the dislike counter never exceeds the TTL.
func TestBEEPSendBounds(t *testing.T) {
	f := func(seed int64, fanout uint8, ttl uint8, dislikes uint8, likedByte uint8) bool {
		fl := int(fanout%16) + 1
		ttlV := int(ttl % 6)
		cfgTTL := ttlV
		if cfgTTL == 0 {
			cfgTTL = -1
		}
		liked := likedByte%2 == 0
		op := OpinionFunc(func(news.NodeID, news.ID) bool { return liked })
		n := NewNode(0, "", Config{FLike: fl, DislikeTTL: cfgTTL}, op, rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed + 1))
		var descs []overlay.Descriptor
		for i := news.NodeID(1); i <= 25; i++ {
			p := profile.New()
			p.Set(news.ID(rng.Intn(10)), 0, 1)
			descs = append(descs, overlay.Descriptor{Node: i, Stamp: int64(i), Profile: snapshotOf(p)})
		}
		n.SeedViews(descs)
		msg := ItemMessage{
			Item:     news.New("t", "d", "l", 1, 99),
			Profile:  profile.New(),
			Dislikes: int(dislikes % 8),
			Hops:     1,
		}
		_, sends := n.Receive(msg, 1)
		if liked && len(sends) > fl {
			return false
		}
		if !liked && len(sends) > 1 {
			return false
		}
		for _, s := range sends {
			if s.Msg.Dislikes > maxInt(int(dislikes%8)+1, int(dislikes%8)) {
				return false
			}
			if !liked && s.Msg.Dislikes > ttlV {
				return false // a dislike forward beyond the TTL escaped
			}
			if s.Msg.Hops != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestUserProfileScoresAreBinary: whatever sequence of receipts, a user
// profile holds only 0/1 scores and at most one entry per item.
func TestUserProfileScoresAreBinary(t *testing.T) {
	f := func(seed int64, itemIDs []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		op := OpinionFunc(func(_ news.NodeID, id news.ID) bool { return id%2 == 0 })
		n := NewNode(0, "", Config{FLike: 3}, op, rng)
		for i, raw := range itemIDs {
			it := news.New("t", "d", "l", int64(i), 1)
			it.ID = news.ID(raw % 64) // force duplicates
			n.Receive(ItemMessage{Item: it, Profile: profile.New(), Hops: 1}, int64(i))
		}
		// Every entry's id is below 64: one entry per id found there, and
		// no more entries than that, means no id holds two.
		found := 0
		for id := news.ID(0); id < 64; id++ {
			if e, ok := n.UserProfile().Get(id); ok {
				if e.Score != 0 && e.Score != 1 {
					return false
				}
				found++
			}
		}
		return found == n.UserProfile().Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestItemProfileScoresBounded: aggregated item-profile scores stay in
// [0, 1] under arbitrary like sequences (averages of values in [0,1]). The
// item travels a chain of likers, each with WUP neighbours to forward it to,
// and each hop is handed the profile the previous one forwarded.
func TestItemProfileScoresBounded(t *testing.T) {
	checked := 0 // entries the bound was asserted over, across all runs
	f := func(seed int64, hops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		op := OpinionFunc(func(news.NodeID, news.ID) bool { return true })
		var neighbours []overlay.Descriptor
		for i := news.NodeID(100); i < 104; i++ {
			p := profile.New()
			p.Set(news.ID(rng.Intn(8)), 0, 1)
			neighbours = append(neighbours, overlay.Descriptor{Node: i, Stamp: 0, Profile: snapshotOf(p)})
		}
		ip := profile.New()
		// A chain of likers, each folding its profile into the item profile.
		for h := 0; h < int(hops%12)+1; h++ {
			n := NewNode(news.NodeID(h), "", Config{FLike: 2}, op, rng)
			n.SeedViews(neighbours)
			for k := 0; k < 5; k++ {
				n.UserProfile().Set(news.ID(rng.Intn(8)), int64(h), float64(rng.Intn(2)))
			}
			it := news.New("t", "d", "l", int64(h), 0)
			it.ID = news.ID(1000 + h)
			_, sends := n.Receive(ItemMessage{Item: it, Profile: ip, Hops: h}, int64(h))
			if len(sends) == 0 {
				return false // a liker with WUP neighbours forwards
			}
			ip = sends[0].Msg.Profile
			// Entries are the likers' ids 0–7: a liker rates the item after
			// folding its profile in.
			found := 0
			for id := news.ID(0); id < 8; id++ {
				if e, ok := ip.Get(id); ok {
					if e.Score < 0 || e.Score > 1 {
						return false
					}
					found++
				}
			}
			if found != ip.Len() {
				return false
			}
			checked += found
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("vacuous: the bound was asserted over no item-profile entry")
	}
}
