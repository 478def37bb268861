package baselines

import (
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// The gossip and CF peers must satisfy the engine contract.
var (
	_ sim.Peer = (*Gossip)(nil)
	_ sim.Peer = (*CF)(nil)
)

func likeEven() core.Opinions {
	return core.OpinionFunc(func(_ news.NodeID, item news.ID) bool { return item%2 == 0 })
}

func descLiking(node news.NodeID, liked ...news.ID) overlay.Descriptor {
	p := profile.New()
	for _, id := range liked {
		p.Set(id, 0, 1)
	}
	return overlay.Descriptor{Node: node, Stamp: 0, Profile: snapshotOf(p)}
}

func fixedItem(id int) news.Item {
	it := news.New("t", "d", "l", 1, 0)
	it.ID = news.ID(id)
	return it
}

func TestGossipForwardsRegardlessOfOpinion(t *testing.T) {
	g := NewGossip(0, 3, 8, likeEven(), rand.New(rand.NewSource(1)))
	g.RPS().Seed([]overlay.Descriptor{
		descLiking(1), descLiking(2), descLiking(3), descLiking(4),
	})
	// Disliked item (odd id) still forwarded with full fanout.
	d, sends := g.Receive(core.ItemMessage{Item: fixedItem(3), Hops: 1}, 1)
	if d.Liked {
		t.Fatal("odd items are disliked")
	}
	if len(sends) != 3 {
		t.Fatalf("homogeneous gossip must forward %d copies, got %d", 3, len(sends))
	}
	// Liked item: same fanout.
	_, sends = g.Receive(core.ItemMessage{Item: fixedItem(4), Hops: 1}, 1)
	if len(sends) != 3 {
		t.Fatalf("fanout must not depend on opinion, got %d", len(sends))
	}
	// Duplicate dropped.
	if d, sends := g.Receive(core.ItemMessage{Item: fixedItem(3), Hops: 2}, 1); !d.Duplicate || sends != nil {
		t.Fatal("duplicates must be dropped")
	}
}

func TestGossipPublish(t *testing.T) {
	g := NewGossip(0, 2, 8, likeEven(), rand.New(rand.NewSource(2)))
	g.RPS().Seed([]overlay.Descriptor{descLiking(1), descLiking(2)})
	sends := g.Publish(fixedItem(10), 1)
	if len(sends) != 2 {
		t.Fatalf("publish fanout=%d want 2", len(sends))
	}
	if e, ok := g.UserProfile().Get(10); !ok || e.Score != 1 {
		t.Fatal("source must record a like for its own item")
	}
	if g.WUP() != nil {
		t.Fatal("plain gossip must have no clustering layer")
	}
}

func TestCFForwardsOnlyWhenLiked(t *testing.T) {
	c := NewCF(0, 2, 8, 100, profile.WUP{}, likeEven(), rand.New(rand.NewSource(3)))
	c.WUP().Seed([]overlay.Descriptor{descLiking(1), descLiking(2)}, c.UserProfile())
	// Liked item: forwarded to all k neighbours.
	d, sends := c.Receive(core.ItemMessage{Item: fixedItem(4), Hops: 1}, 1)
	if !d.Liked || len(sends) != 2 {
		t.Fatalf("CF must forward liked items to all k: %d sends", len(sends))
	}
	// Disliked item: recorded but not forwarded.
	d, sends = c.Receive(core.ItemMessage{Item: fixedItem(5), Hops: 1}, 1)
	if d.Liked || sends != nil {
		t.Fatal("CF must take no action on dislike")
	}
	if e, ok := c.UserProfile().Get(5); !ok || e.Score != 0 {
		t.Fatal("dislike must still be recorded in the profile")
	}
}

func TestCFWindowPurge(t *testing.T) {
	c := NewCF(0, 2, 8, 10, profile.Cosine{}, likeEven(), rand.New(rand.NewSource(4)))
	c.UserProfile().Set(2, 1, 1)
	c.BeginCycle(50)
	if c.UserProfile().Len() != 0 {
		t.Fatal("window purge must drop stale entries")
	}
}

func TestCFRunsUnderEngine(t *testing.T) {
	// A small end-to-end run of CF peers under the simulation engine.
	const n = 30
	op := likeEven()
	peers := make([]sim.Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = NewCF(news.NodeID(i), 4, 8, 100, profile.WUP{}, op, rand.New(rand.NewSource(int64(i))))
	}
	col := metrics.NewCollector()
	var pubs []sim.Publication
	for k := 0; k < 20; k++ {
		it := fixedItem(k)
		it.Created = int64(1 + k)
		pubs = append(pubs, sim.Publication{Cycle: int64(1 + k), Source: news.NodeID(k % n), Item: it})
		interested := 0
		if k%2 == 0 {
			interested = n
		}
		col.RegisterItem(it.ID, interested)
	}
	e := sim.New(sim.Config{Seed: 9, Cycles: 25, Publications: pubs}, peers, col)
	e.Bootstrap()
	e.Run()
	if col.Recall() == 0 {
		t.Fatal("CF must deliver some liked items")
	}
	if col.Messages(metrics.MsgBeep) == 0 || col.GossipMessages() == 0 {
		t.Fatal("traffic must be accounted")
	}
}

// TestBaselineCrashWipesViews pins the lifecycle bugfix: a scheduled crash
// of a Gossip or CF peer must leave no pre-crash descriptors behind — the
// stale view made churn comparisons against WhatsUp apples-to-oranges — and
// a rejoin must re-seed from the online population.
func TestBaselineCrashWipesViews(t *testing.T) {
	const n = 24
	op := likeEven()
	build := map[string]func(i int) sim.Peer{
		"gossip": func(i int) sim.Peer {
			return NewGossip(news.NodeID(i), 3, 8, op, rand.New(rand.NewSource(int64(i))))
		},
		"cf": func(i int) sim.Peer {
			return NewCF(news.NodeID(i), 3, 8, 100, profile.WUP{}, op, rand.New(rand.NewSource(int64(i))))
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			peers := make([]sim.Peer, n)
			for i := 0; i < n; i++ {
				peers[i] = mk(i)
			}
			var schedule sim.ChurnSchedule
			schedule.Add(3, sim.ChurnCrash, 0).Add(4, sim.ChurnRejoin, 0)
			e := sim.New(sim.Config{Seed: 11, Cycles: 10, BootstrapDegree: 4, Churn: schedule}, peers, metrics.NewCollector())
			e.Bootstrap()
			e.Step()
			e.Step()
			p := e.Peer(0).Overlay()
			if p.RPS().View().Len() == 0 {
				t.Fatal("pre-crash RPS view empty; nothing to exercise")
			}
			pre := p.RPS().View().Nodes()
			e.Step()
			if st, _ := e.State(0); st != sim.Offline {
				t.Fatalf("state after the scheduled crash = %v", st)
			}
			if got := p.RPS().View().Len(); got != 0 {
				t.Fatalf("crashed peer still holds %d RPS descriptors (pre-crash: %v)", got, pre)
			}
			if p.WUP() != nil && p.WUP().View().Len() != 0 {
				t.Fatalf("crashed CF peer still holds %d kNN descriptors", p.WUP().View().Len())
			}
			e.Step()
			if st, _ := e.State(0); st != sim.Online {
				t.Fatalf("state after the scheduled rejoin = %v", st)
			}
			if p.RPS().View().Len() == 0 {
				t.Fatal("rejoin must re-seed the RPS view from the online population")
			}
			if p.WUP() != nil && p.WUP().View().Len() == 0 {
				t.Fatal("rejoin must re-seed the kNN view")
			}
		})
	}
}

// tinyDataset builds a minimal survey-style dataset for the centralized
// baselines.
func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Survey(dataset.SurveyConfig{Seed: 42, Scale: 0.05})
}

func TestPubSubPerfectRecall(t *testing.T) {
	// Large enough that background likes create off-topic subscribers, which
	// is what bounds C-Pub/Sub's precision below 1.
	ds := dataset.Survey(dataset.SurveyConfig{Seed: 42, Scale: 0.25})
	col := metrics.NewCollector()
	RunPubSub(ds, col)
	if r := col.Recall(); r < 0.999 {
		t.Fatalf("C-Pub/Sub recall must be 1, got %v", r)
	}
	p := col.Precision()
	if p <= 0 || p > 1 {
		t.Fatalf("precision out of range: %v", p)
	}
	if p > 0.95 {
		t.Fatalf("topic granularity should limit precision, got %v", p)
	}
	if col.Messages(metrics.MsgBeep) == 0 {
		t.Fatal("pub/sub messages must be counted")
	}
}

func TestCascadeLowRecall(t *testing.T) {
	ds := dataset.Digg(dataset.DiggConfig{Seed: 7, Scale: 0.08})
	col := metrics.NewCollector()
	RunCascade(ds, col)
	r := col.Recall()
	if r <= 0 {
		t.Fatal("cascade must reach someone")
	}
	if r > 0.7 {
		t.Fatalf("cascading over an interest-agnostic graph should miss many interested users, recall=%v", r)
	}
	if col.Messages(metrics.MsgBeep) == 0 {
		t.Fatal("cascade messages must be counted")
	}
}

func TestCascadeRequiresLikeToForward(t *testing.T) {
	// Hand-built 4-user line: 0→1→2→3. User 2 dislikes everything, so 3 can
	// never be reached.
	ds := dataset.Digg(dataset.DiggConfig{Seed: 1, Scale: 0.02})
	_ = ds // structure test is covered by the Digg generator; here we check the mechanism:
	col := metrics.NewCollector()
	RunCascade(ds, col)
	// Every delivery beyond hop 0 must have been forwarded by a liker: no
	// infection can be at hops > 0 unless some forward happened at hops-1.
	for h := range col.InfectionByLike {
		if h == 0 {
			continue
		}
		if col.ForwardByLike[h-1] == 0 {
			t.Fatalf("infection at hop %d without any forward at hop %d", h, h-1)
		}
	}
	if len(col.ForwardByDislike) != 0 {
		t.Fatal("cascade must never dislike-forward")
	}
}

func TestCentralBeatsNothingButBehaves(t *testing.T) {
	ds := tinyDataset(t)
	col := metrics.NewCollector()
	RunCentral(ds, 5, col)
	p, r := col.Precision(), col.Recall()
	if p <= 0 || r <= 0 {
		t.Fatalf("central must deliver: P=%v R=%v", p, r)
	}
	if col.Messages(metrics.MsgBeep) == 0 {
		t.Fatal("central messages must be counted")
	}
}

func TestCentralConfigDefaults(t *testing.T) {
	if centralFDislike != 1 || centralTTL != 4 || centralWindow != 13 {
		t.Fatalf("central constants wrong: fDislike=%d ttl=%d window=%d", centralFDislike, centralTTL, centralWindow)
	}
}

func TestCentralOutperformsCascadeOnQuality(t *testing.T) {
	// Global knowledge should dominate interest-agnostic cascading on F1.
	ds := dataset.Digg(dataset.DiggConfig{Seed: 11, Scale: 0.05})
	colCentral, colCascade := metrics.NewCollector(), metrics.NewCollector()
	RunCentral(ds, 5, colCentral)
	RunCascade(ds, colCascade)
	if colCentral.F1() <= colCascade.F1() {
		t.Fatalf("central F1=%v must beat cascade F1=%v", colCentral.F1(), colCascade.F1())
	}
}

// snapshotOf is p packed, by address, as a descriptor holds it.
func snapshotOf(p *profile.Profile) *profile.Packed {
	pk := p.Pack()
	return &pk
}
