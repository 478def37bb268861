package core_test

import (
	"math/rand"
	"testing"

	"whatsup/internal/adversary"
	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/profile"
)

// TestDescriptorSnapshotNeverStale: the self-descriptor's snapshot is packed
// once per profile version. After every user-profile mutator the next
// Descriptor carries the new entries; with no mutation
// in between, two calls return the one snapshot; and a poisoner, whose
// behavior fabricates a new profile on every call, gets each fabrication.
func TestDescriptorSnapshotNeverStale(t *testing.T) {
	s := core.NewSubstrate(1, core.Config{RPSViewSize: 4}, rand.New(rand.NewSource(1)))
	other := profile.New()
	other.Set(2, 9, 1)
	other.Set(50, 9, 0.5)
	mutators := []struct {
		name   string
		mutate func(p *profile.Profile)
	}{
		{"Set", func(p *profile.Profile) { p.Set(1, 5, 1); p.Set(2, 6, 0); p.Set(3, 7, 1) }},
		{"MergeAverage", func(p *profile.Profile) { p.MergeAverage(other) }},
		{"PurgeOlderThan", func(p *profile.Profile) { p.PurgeOlderThan(9) }},
	}
	user := s.UserProfile()
	prev := s.Descriptor(0).Profile
	for i, m := range mutators {
		before := prev.AppendWire(nil)
		m.mutate(user)
		now := int64(i + 1)
		d := s.Descriptor(now)
		if d.Stamp != now || d.Node != 1 {
			t.Fatalf("%s: descriptor %+v, want node 1 stamped %d", m.name, d, now)
		}
		if !d.Profile.Equal(snapshotOf(user)) {
			t.Fatalf("%s: the descriptor carries %v, the profile is %v", m.name, d.Profile, user)
		}
		if string(d.Profile.AppendWire(nil)) == string(before) {
			t.Fatalf("%s: vacuous, the mutation left the entries as they were", m.name)
		}
		if again := s.Descriptor(now + 100); again.Profile != d.Profile {
			t.Fatalf("%s: an unchanged profile was packed again", m.name)
		}
		prev = d.Profile
	}
	if u, _, _ := profile.DecodeWire(prev.AppendWire(nil)); u.Len() == 0 {
		t.Fatal("vacuous: the last snapshot is empty")
	}

	s.SetBehavior(&adversary.Poisoner{ClaimLiked: []news.ID{7, 8}})
	var last *profile.Packed
	for _, now := range []int64{20, 21, 21} {
		d := s.Descriptor(now)
		fake, _, err := profile.DecodeWire(d.Profile.AppendWire(nil))
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := fake.Get(7); !ok || e.Stamp != now || fake.Len() != 2 {
			t.Fatalf("poisoner at %d: the descriptor carries %v, want its fabrication stamped %d", now, fake, now)
		}
		if d.Profile == last {
			t.Fatalf("poisoner at %d: the previous fabrication's snapshot came back", now)
		}
		last = d.Profile
	}
}

// snapshotOf is p packed, by address, as a descriptor holds it.
func snapshotOf(p *profile.Profile) *profile.Packed {
	pk := p.Pack()
	return &pk
}
