package profile

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"whatsup/internal/news"
)

func TestSetSingleEntryPerID(t *testing.T) {
	p := New()
	p.Set(1, 10, 1)
	p.Set(1, 20, 0)
	if p.Len() != 1 {
		t.Fatalf("profile must hold a single entry per id, got %d", p.Len())
	}
	e, ok := p.Get(1)
	if !ok || e.Score != 0 || e.Stamp != 20 {
		t.Fatalf("Set did not replace: %+v", e)
	}
}

func TestNormTracksMutations(t *testing.T) {
	p := New()
	p.Set(1, 0, 1)
	p.Set(2, 1, 1)
	p.Set(3, 1, 0)
	if got, want := norm(p.sumSq), math.Sqrt(2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Norm=%v want %v", got, want)
	}
	p.PurgeOlderThan(1)
	if got, want := norm(p.sumSq), 1.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Norm after purge=%v want %v", got, want)
	}
	p.Set(2, 1, 0.5) // replace like with half-score
	if got, want := norm(p.sumSq), 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Norm after replace=%v want %v", got, want)
	}
}

// averageIn merges one tuple of a liker's user profile into an item profile,
// one entry at a time, as Algorithm 1 lines 18-22 (addToNewsProfile) read:
// an existing score s becomes (s+score)/2 and the entry keeps the fresher
// stamp, a missing id is inserted as is. It is the reference MergeAverage
// is held to.
func averageIn(p *Profile, id news.ID, stamp int64, score float64) {
	p.version++
	i, ok := p.search(id)
	if !ok {
		p.entries = append(p.entries, Entry{})
		copy(p.entries[i+1:], p.entries[i:])
		p.entries[i] = Entry{Item: id, Stamp: stamp, Score: score}
	} else {
		p.entries[i].Score = (p.entries[i].Score + score) / 2
		p.entries[i].Stamp = max(p.entries[i].Stamp, stamp)
	}
	p.resum()
}

func TestAverageInMatchesAlgorithm1(t *testing.T) {
	// addToNewsProfile: existing score is replaced by the average of old and
	// new; missing ids are inserted verbatim.
	ip := New()
	averageIn(ip, 7, 3, 1)
	if e, _ := ip.Get(7); e.Score != 1 || e.Stamp != 3 {
		t.Fatalf("insert path wrong: %+v", e)
	}
	averageIn(ip, 7, 9, 0)
	e, _ := ip.Get(7)
	if e.Score != 0.5 {
		t.Fatalf("average path wrong: score=%v want 0.5", e.Score)
	}
	if e.Stamp != 9 {
		t.Fatalf("average path must keep the freshest stamp, got %d", e.Stamp)
	}
	averageIn(ip, 7, 9, 1)
	if e, _ := ip.Get(7); e.Score != 0.75 {
		t.Fatalf("second average wrong: %v want 0.75", e.Score)
	}
}

func TestAverageInStalenessRegression(t *testing.T) {
	// Regression for the profile-window staleness bug: an entry reinforced by
	// a recent liker used to keep its original stamp, so the next
	// PurgeOlderThan could drop an item-profile entry that had just been
	// re-expressed. The freshest stamp must win, in both merge directions.
	ip := New()
	averageIn(ip, 7, 3, 1) // first opinion at cycle 3
	averageIn(ip, 7, 9, 1) // reinforced at cycle 9
	if dropped := ip.PurgeOlderThan(5); dropped != 0 {
		t.Fatalf("reinforced entry purged: dropped=%d", dropped)
	}
	if !has(ip, 7) {
		t.Fatal("reinforced entry must survive a purge past its original stamp")
	}
	// An older opinion must never rejuvenate a fresher entry.
	averageIn(ip, 7, 1, 1)
	if e, _ := ip.Get(7); e.Stamp != 9 {
		t.Fatalf("older merge must not regress the stamp: got %d want 9", e.Stamp)
	}
	// MergeAverage takes the same freshest-stamp rule.
	a, b := New(), New()
	a.Set(1, 2, 1)
	b.Set(1, 8, 0)
	a.MergeAverage(b)
	if e, _ := a.Get(1); e.Stamp != 8 || e.Score != 0.5 {
		t.Fatalf("MergeAverage stamp/score wrong: %+v", e)
	}
}

func TestPurgeOlderThan(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		p.Set(news.ID(i), int64(i), 1)
	}
	dropped := p.PurgeOlderThan(5)
	if dropped != 5 || p.Len() != 5 {
		t.Fatalf("dropped=%d len=%d want 5/5", dropped, p.Len())
	}
	for i := 5; i < 10; i++ {
		if !has(p, news.ID(i)) {
			t.Fatalf("entry %d must survive the purge", i)
		}
	}
	if p.PurgeOlderThan(5) != 0 {
		t.Fatalf("second purge at same boundary must drop nothing")
	}
	if got, want := norm(p.sumSq), math.Sqrt(5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Norm after purge=%v want %v", got, want)
	}
}

func TestPurgeAllResetsNorm(t *testing.T) {
	p := New()
	p.Set(1, 1, 0.3)
	p.Set(2, 2, 0.7)
	p.PurgeOlderThan(100)
	if p.Len() != 0 || p.sumSq != 0 {
		t.Fatalf("full purge must empty the profile: len=%d Σ score²=%v", p.Len(), p.sumSq)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := New()
	p.Set(1, 1, 1)
	c := p.Clone()
	c.Set(2, 2, 1)
	c.Set(1, 3, 0)
	if p.Len() != 1 {
		t.Fatalf("mutating the clone changed the original")
	}
	if e, _ := p.Get(1); e.Score != 1 {
		t.Fatalf("original entry overwritten via clone")
	}
}

func TestEntriesSorted(t *testing.T) {
	p := New()
	for _, id := range []news.ID{9, 3, 7, 1} {
		p.Set(id, 0, 1)
	}
	es := p.entries
	for i := 1; i < len(es); i++ {
		if es[i-1].Item >= es[i].Item {
			t.Fatalf("entries not sorted: %v", es)
		}
	}
}

func TestMostPopular(t *testing.T) {
	mk := func(ids ...news.ID) *Profile {
		p := New()
		for _, id := range ids {
			p.Set(id, 0, 1)
		}
		return p
	}
	a, b, c, d := mk(1, 2, 3).Pack(), mk(2, 3).Pack(), mk(3).Pack(), mk(4).Pack()
	profiles := []*Packed{&a, &b, &c, nil, &d}
	top := MostPopular(profiles, 3)
	want := []news.ID{3, 2, 1}
	if len(top) != 3 || top[0] != want[0] || top[1] != want[1] || top[2] != want[2] {
		t.Fatalf("MostPopular=%v want %v", top, want)
	}
	if got := MostPopular(profiles, 10); len(got) != 4 {
		t.Fatalf("MostPopular must cap at distinct ids, got %v", got)
	}
}

// randomProfile builds a profile with n entries drawn from a universe of ids.
func randomProfile(rng *rand.Rand, n int, universe int64) *Profile {
	p := New()
	for i := 0; i < n; i++ {
		p.Set(news.ID(rng.Int63n(universe)), rng.Int63n(1000), float64(rng.Intn(2)))
	}
	return p
}

func TestNormPropertyMatchesRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := randomProfile(rng, rng.Intn(50), 40)
		// Random churn.
		for i := 0; i < 30; i++ {
			switch rng.Intn(3) {
			case 0:
				p.Set(news.ID(rng.Int63n(40)), rng.Int63n(1000), rng.Float64())
			case 1:
				p.PurgeOlderThan(rng.Int63n(100))
			case 2:
				averageIn(p, news.ID(rng.Int63n(40)), rng.Int63n(1000), rng.Float64())
			}
		}
		var sumSq float64
		for _, e := range p.entries {
			sumSq += e.Score * e.Score
		}
		if math.Abs(norm(p.sumSq)-math.Sqrt(sumSq)) > 1e-9 {
			t.Fatalf("cached norm drifted: %v vs %v", norm(p.sumSq), math.Sqrt(sumSq))
		}
	}
}

// legacyClone is an entry-by-entry deep copy, the reference semantics for
// the observational-equivalence property tests.
func legacyClone(p *Profile) *Profile {
	c := WithCapacity(p.Len())
	c.entries = append(c.entries, p.entries...)
	c.sumSq = p.sumSq
	return c
}

// mutate applies one random mutation to a profile: Set (a binary or a real
// score), PurgeOlderThan, MergeAverage, or p replaced by its own Merged or
// Windowed result.
func mutate(p *Profile, rng *rand.Rand) {
	switch rng.Intn(6) {
	case 0:
		p.Set(news.ID(rng.Int63n(60)), rng.Int63n(1000), float64(rng.Intn(2)))
	case 1:
		p.Set(news.ID(rng.Int63n(60)), rng.Int63n(1000), rng.Float64())
	case 2:
		p.PurgeOlderThan(rng.Int63n(1000))
	case 3:
		p.MergeAverage(randomProfile(rng, rng.Intn(20), 60))
	case 4:
		*p = *p.Merged(randomProfile(rng, rng.Intn(20), 60))
	case 5:
		*p = *p.Windowed(rng.Int63n(1000))
	}
}

func TestCloneCOWObservationallyEqualsDeepCopy(t *testing.T) {
	// A clone and its original must evolve exactly as independent deep
	// copies would, whatever interleaving of mutations hits either side —
	// including clones of clones.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		base := randomProfile(rng, rng.Intn(40), 60)
		cow := base.Clone()
		deep := legacyClone(base)
		refBase := legacyClone(base)
		for step := 0; step < 40; step++ {
			r := rng.Int63()
			mrng := rand.New(rand.NewSource(r))
			mrng2 := rand.New(rand.NewSource(r))
			if rng.Intn(2) == 0 {
				mutate(base, mrng)
				mutate(refBase, mrng2)
			} else {
				mutate(cow, mrng)
				mutate(deep, mrng2)
			}
		}
		if !sameEntries(cow, deep) {
			t.Fatalf("trial %d: clone diverged from deep copy:\n%v\n%v", trial, cow, deep)
		}
		if !sameEntries(base, refBase) {
			t.Fatalf("trial %d: original corrupted by clone mutations:\n%v\n%v", trial, base, refBase)
		}
		// Grandchild clones must be independent too.
		g1, g2 := cow.Clone(), cow.Clone()
		g1.Set(999, 1, 1)
		if has(g2, 999) || has(cow, 999) {
			t.Fatalf("trial %d: clone-of-clone mutation leaked", trial)
		}
	}
}

func TestMergeAverageMatchesAverageInLoop(t *testing.T) {
	// MergeAverage must be observationally identical to the entry-at-a-time
	// AverageIn loop it replaces, including the cached norm bit-for-bit.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		p := randomProfile(rng, rng.Intn(40), 50)
		other := randomProfile(rng, rng.Intn(40), 50)
		ref := legacyClone(p)
		for _, e := range other.entries {
			averageIn(ref, e.Item, e.Stamp, e.Score)
		}
		p.MergeAverage(other)
		if !sameEntries(p, ref) {
			t.Fatalf("trial %d: merge mismatch:\n%v\n%v", trial, p, ref)
		}
		if !sameBits(p.sumSq, ref.sumSq) {
			t.Fatalf("trial %d: Σ score² not bit-identical: %v vs %v", trial, p.sumSq, ref.sumSq)
		}
	}
	// nil and empty are no-ops.
	p := randomProfile(rng, 10, 50)
	ref := legacyClone(p)
	p.MergeAverage(nil)
	p.MergeAverage(New())
	if !sameEntries(p, ref) {
		t.Fatal("merging nil/empty must not change the profile")
	}
}

func TestMergeAverageIntoEmptySharesCOW(t *testing.T) {
	user := randomProfile(rand.New(rand.NewSource(13)), 30, 50)
	ip := New()
	ip.MergeAverage(user)
	if !sameEntries(ip, user) {
		t.Fatal("merge into empty must copy the source verbatim")
	}
	if !sameBits(ip.sumSq, user.sumSq) {
		t.Fatalf("merge into empty: Σ score² %v, want the source's %v", ip.sumSq, user.sumSq)
	}
	// Mutating either side afterwards must not leak into the other.
	before := legacyClone(user)
	ip.Set(999, 1, 1)
	ip.PurgeOlderThan(1000)
	if !sameEntries(user, before) {
		t.Fatal("item-profile mutations leaked into the user profile")
	}
	user.Set(998, 1, 1)
	if has(ip, 998) {
		t.Fatal("user-profile mutations leaked into the item profile")
	}
}

// TestMergedAndWindowedOnlyRead: Merged and Windowed give what a deep copy
// followed by MergeAverage or PurgeOlderThan gives, entries and Σ score²
// bits, and leave the receiver's entries and Σ score² as they were.
// Merged's result never shares the receiver's array, even with nothing to
// fold in; Windowed returns the receiver itself when nothing is stale.
func TestMergedAndWindowedOnlyRead(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	same := func(a, b *Profile) bool { return sameEntries(a, b) && sameBits(a.sumSq, b.sumSq) }
	for trial := 0; trial < 300; trial++ {
		p := randomProfile(rng, rng.Intn(30), 60)
		mutate(p, rng)
		before := legacyClone(p)
		other := randomProfile(rng, rng.Intn(3)*rng.Intn(20), 60)
		minStamp := rng.Int63n(1000)

		want := legacyClone(before)
		want.MergeAverage(other)
		got := p.Merged(other)
		if !same(got, want) {
			t.Fatalf("trial %d: Merged gave %v, want %v", trial, got, want)
		}
		if got.Len() > 0 && p.Len() > 0 && &got.entries[0] == &p.entries[0] {
			t.Fatalf("trial %d: Merged shares the receiver's array", trial)
		}
		got.PurgeOlderThan(minStamp)

		want = legacyClone(before)
		dropped := want.PurgeOlderThan(minStamp)
		got = p.Windowed(minStamp)
		if !same(got, want) || (got == p) != (dropped == 0) {
			t.Fatalf("trial %d: Windowed gave %v (the receiver: %v), want %v", trial, got, got == p, want)
		}
		if !same(p, before) {
			t.Fatalf("trial %d: the receiver changed to %v, was %v", trial, p, before)
		}
	}
}

// TestFoldMatchesMergedThenPurge: Fold into a scratch profile gives what
// Merged then PurgeOlderThan give — entries and Σ score² bits — whatever the
// scratch held before, and leaves both inputs as they were. The scratch's
// array is reused once it is large enough, and every fold bumps its version.
func TestFoldMatchesMergedThenPurge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	same := func(a, b *Profile) bool { return sameEntries(a, b) && sameBits(a.sumSq, b.sumSq) }
	scratch := New()
	reused := 0
	for trial := 0; trial < 500; trial++ {
		p := randomProfile(rng, rng.Intn(30), 60)
		mutate(p, rng)
		other := randomProfile(rng, rng.Intn(3)*rng.Intn(20), 60)
		pBefore, otherBefore := legacyClone(p), legacyClone(other)
		minStamp := rng.Int63n(1000)
		if rng.Intn(4) == 0 {
			minStamp = math.MinInt64
		}

		want := p.Merged(other)
		want.PurgeOlderThan(minStamp)
		version, array := scratch.Version(), scratch.entries[:cap(scratch.entries)]
		scratch.Fold(p, other, minStamp)
		if !same(scratch, want) {
			t.Fatalf("trial %d: Fold gave %v, Merged then PurgeOlderThan %v", trial, scratch, want)
		}
		checkCanonicalNorm(t, scratch)
		if scratch.Version() <= version {
			t.Fatalf("trial %d: Fold left the version at %d", trial, scratch.Version())
		}
		if len(array) >= p.Len()+other.Len() && len(array) > 0 {
			if &scratch.entries[:1][0] != &array[0] {
				t.Fatalf("trial %d: Fold reallocated a scratch with room for %d entries", trial, len(array))
			}
			reused++
		}
		if !same(p, pBefore) || !same(other, otherBefore) {
			t.Fatalf("trial %d: Fold wrote an input", trial)
		}
	}
	if reused < 400 {
		t.Fatalf("vacuous: the scratch was reused in %d of 500 folds", reused)
	}
}

// TestReadWireReusesEntries: a decode into a profile that held other entries
// gives what a fresh decode gives and reuses the array once it is large
// enough; a failed decode leaves the profile empty. Every decode bumps the
// version.
func TestReadWireReusesEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	scratch := randomProfile(rng, 40, 100)
	for trial := 0; trial < 300; trial++ {
		enc := randomProfile(rng, rng.Intn(40), 1<<40).AppendWire(nil)
		if rng.Intn(4) == 0 {
			enc = enc[:rng.Intn(len(enc))] // truncated: an error, unless it cut to a shorter whole profile
		}
		want, wantRest, wantErr := DecodeWire(enc)
		version, array := scratch.Version(), scratch.entries[:cap(scratch.entries)]
		rest, err := scratch.ReadWire(enc)
		if (err == nil) != (wantErr == nil) || len(rest) != len(wantRest) {
			t.Fatalf("trial %d: ReadWire err=%v rest=%d, DecodeWire err=%v rest=%d", trial, err, len(rest), wantErr, len(wantRest))
		}
		if scratch.Version() <= version {
			t.Fatalf("trial %d: ReadWire left the version at %d", trial, scratch.Version())
		}
		if err != nil {
			if scratch.Len() != 0 || scratch.sumSq != 0 {
				t.Fatalf("trial %d: a failed decode left %v", trial, scratch)
			}
			continue
		}
		if !sameEntries(scratch, want) || !sameBits(scratch.sumSq, want.sumSq) {
			t.Fatalf("trial %d: ReadWire gave %v, DecodeWire %v", trial, scratch, want)
		}
		if len(array) >= want.Len() && want.Len() > 0 && &scratch.entries[:1][0] != &array[0] {
			t.Fatalf("trial %d: ReadWire reallocated a profile with room for %d entries", trial, len(array))
		}
	}
}

func TestVersionBumpsOnEveryMutation(t *testing.T) {
	p := New()
	v := p.Version()
	step := func(name string, fn func()) {
		fn()
		if p.Version() <= v {
			t.Fatalf("%s must bump the version (still %d)", name, v)
		}
		v = p.Version()
	}
	step("Set", func() { p.Set(1, 1, 1) })
	step("MergeAverage", func() { q := New(); q.Set(2, 1, 1); p.MergeAverage(q) })
	step("PurgeOlderThan", func() { p.Set(3, 0, 1); v = p.Version(); p.PurgeOlderThan(1) })
	// Reads and no-op mutations must not bump.
	p.Set(9, 5, 1)
	v = p.Version()
	p.PurgeOlderThan(0)
	_ = p.Clone()
	_, _ = p.Get(9)
	if p.Version() != v {
		t.Fatalf("no-op operations must not bump the version: %d -> %d", v, p.Version())
	}
}

// checkCanonicalNorm fails t unless p's Σ score² has the bits of the sum in
// ascending id order, and unless Pack and a decode of the wire bytes agree
// with p and each other on bytes and on those bits: the contract that lets a
// snapshot cross any serialisation and score the same.
func checkCanonicalNorm(t *testing.T, p *Profile) {
	t.Helper()
	var sumSq float64
	for _, e := range p.entries {
		sumSq += e.Score * e.Score
	}
	if !sameBits(p.sumSq, sumSq) {
		t.Fatalf("%v: Σ score² %v, the ascending sum is %v", p, p.sumSq, sumSq)
	}
	packed := p.Pack()
	decoded, rest, err := DecodePacked(p.AppendWire(nil))
	if err != nil || len(rest) != 0 || !packed.Equal(&decoded) || !sameBits(packed.sumSq, decoded.sumSq) ||
		!sameBits(packed.sumSq, sumSq) {
		t.Fatalf("%v: Pack (Σ %v) and the decoded wire bytes (Σ %v, err %v) disagree", p, packed.sumSq, decoded.sumSq, err)
	}
}

// TestNormExactAfterLongEditSequences: however long the edit history, Σ score²
// is the ascending-order sum of the entries there are, bit for bit.
func TestNormExactAfterLongEditSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := New()
	for i := 0; i < 20000; i++ {
		mutate(p, rng)
		checkCanonicalNorm(t, p)
	}
}

func TestWireSizeMatchesEncodedLength(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		p := randomProfile(rng, rng.Intn(40), 1<<40)
		// Mix in non-binary scores (dyadic item-profile averages).
		for i := 0; i < 5; i++ {
			averageIn(p, news.ID(rng.Int63n(1<<40)), rng.Int63n(1000), rng.Float64())
		}
		if got, want := p.WireSize(), len(p.AppendWire(nil)); got != want {
			t.Fatalf("WireSize=%d but encoded length=%d for %v", got, want, p)
		}
	}
	if got, want := New().WireSize(), len(New().AppendWire(nil)); got != want {
		t.Fatalf("empty profile WireSize=%d encoded=%d", got, want)
	}
}

// sameEntries reports whether two profiles hold exactly the same entries.
func sameEntries(p, q *Profile) bool { return slices.Equal(p.entries, q.entries) }

// has reports whether p holds an entry for id.
func has(p *Profile, id news.ID) bool {
	_, ok := p.Get(id)
	return ok
}
