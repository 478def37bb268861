package sim

import (
	"math/rand"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
)

// TestWorldRegister checks the one registration routine against both
// producers: warm-up exclusion, base and joiner interest counts, audiences
// grown by the scheduled crowd, join-time-aware eligible denominators, and
// cohorts derived from the schedule.
func TestWorldRegister(t *testing.T) {
	ds := dataset.Survey(dataset.SurveyConfig{Seed: 2, Scale: 0.05})
	users := news.NodeID(ds.Users)
	likes := func(base news.NodeID, from int64) (n int) {
		for i := range ds.Items {
			if ds.Items[i].Cycle >= from && ds.Likes(base, ds.Items[i].News.ID) {
				n++
			}
		}
		return n
	}

	t.Run("dataset", func(t *testing.T) {
		w := DatasetWorld(ds)
		// Joiner users+1 arrives at cycle 9 (its earlier of two join events)
		// with base user 1's interests; users+2 at cycle 4 with user 2's. A
		// join event for a base id is not a joiner.
		w.Churn.Add(12, ChurnJoin, users+1).Add(9, ChurnJoin, users+1).Add(4, ChurnJoin, users+2).Add(3, ChurnJoin, 0)
		col := metrics.NewCollector()
		w.Register(col)

		sawWarm, sawMeasured := false, false
		for i := range ds.Items {
			it := ds.Items[i]
			want := it.Interested
			for _, base := range []news.NodeID{1, 2} {
				if ds.Likes(base, it.News.ID) {
					want++
				}
			}
			st := col.Item(it.News.ID)
			if st == nil || st.Interested != want || st.Excluded != ds.IsWarmup(i) {
				t.Fatalf("item %d registered as %+v, want interested=%d warmup=%v", i, st, want, ds.IsWarmup(i))
			}
			sawWarm = sawWarm || st.Excluded
			sawMeasured = sawMeasured || !st.Excluded
		}
		if !sawWarm || !sawMeasured {
			t.Fatal("the trace must contain both warm-up and measured items")
		}
		for _, tc := range []struct {
			id                   news.NodeID
			interested, eligible int
			cohort               metrics.Cohort
		}{
			{0, likes(0, 0), likes(0, 0), metrics.CohortJoiner}, // labelled by the schedule, counted as base
			{5, likes(5, 0), likes(5, 0), metrics.CohortStable},
			{users + 1, likes(1, 0), likes(1, 9), metrics.CohortJoiner},
			{users + 2, likes(2, 0), likes(2, 4), metrics.CohortJoiner},
		} {
			ns := col.Node(tc.id)
			if ns == nil || ns.Interested != tc.interested || ns.EligibleInterested != tc.eligible {
				t.Errorf("node %d registered as %+v, want interested=%d eligible=%d", tc.id, ns, tc.interested, tc.eligible)
			}
			if got := col.CohortOf(tc.id); got != tc.cohort {
				t.Errorf("node %d cohort %v, want %v", tc.id, got, tc.cohort)
			}
		}
		if likes(1, 9) >= likes(1, 0) {
			t.Fatal("the joiner case is vacuous: nothing it likes was published before it arrived")
		}
		if col.Node(users+3) != nil {
			t.Error("an unscheduled id must not be registered")
		}
	})

	t.Run("communities", func(t *testing.T) {
		w := Communities(10, 4, 3, 8, "t")
		w.Items = append(w.Items, WorldItem{Cycle: 2, Item: news.Item{ID: 1 << 20}}) // spam: nobody's item
		w.Churn = FlashCrowd(3, 10, 6, 0)
		col := metrics.NewCollector()
		w.Register(col)
		if len(w.Items) != 8*3+1 || w.Items[0].Item.Title != "t-1-0" || w.Items[0].Item.ID != 3 || w.Items[0].Item.Source != 3 {
			t.Fatalf("unexpected schedule head: %d items, first %+v", len(w.Items), w.Items[0])
		}
		if st := col.Item(3); st.Interested != (10+6)/4 || st.Excluded {
			t.Errorf("audience %+v, want the community share of base+crowd, measured", st)
		}
		if st := col.Item(1 << 20); st.Interested != 0 {
			t.Errorf("spam audience %d, want 0", st.Interested)
		}
		// Node 12 joins at cycle 3 and likes ids congruent to 0 mod 4: of
		// 3..26 that is 4,8,...,24 — six items, published in cycle id/3, so
		// four of them (12, 16, 20, 24) from cycle 3 on.
		if ns := col.Node(12); ns.Interested != 8*3/4 || ns.EligibleInterested != 4 {
			t.Errorf("joiner registered as %+v, want interested=6 eligible=4", ns)
		}
		if ns := col.Node(2); ns.Interested != 6 || ns.EligibleInterested != 6 {
			t.Errorf("base node registered as %+v", ns)
		}
	})
}

// TestScheduleCohorts pins the cohort precedence rules.
func TestScheduleCohorts(t *testing.T) {
	var s ChurnSchedule
	s.Add(5, ChurnJoin, 100)
	s.Add(6, ChurnCrash, 1)
	s.Add(9, ChurnRejoin, 1)
	s.Add(7, ChurnCrash, 2) // never rejoins
	s.Add(8, ChurnLeave, 3)
	s.Add(10, ChurnJoin, 101)
	s.Add(12, ChurnCrash, 101) // joiner that crashes and stays down
	// Out of slice order on purpose: the rejoin (cycle 20) is listed before
	// the crash (cycle 15); the cohort scan must order by cycle like the
	// engine does and label node 6 a rejoiner, not departed.
	s.Add(20, ChurnRejoin, 6)
	s.Add(15, ChurnCrash, 6)
	cohorts := s.Cohorts()
	for id, want := range map[news.NodeID]metrics.Cohort{
		100: metrics.CohortJoiner,
		1:   metrics.CohortRejoiner,
		2:   metrics.CohortDeparted,
		3:   metrics.CohortDeparted,
		101: metrics.CohortDeparted,
		6:   metrics.CohortRejoiner,
		4:   metrics.CohortStable,
	} {
		if got := cohorts[id]; got != want {
			t.Errorf("node %d: cohort %v, want %v", id, got, want)
		}
	}
	if len(s.Events) != 9 || s.Events[7].Cycle != 20 {
		t.Error("Cohorts must not reorder the schedule it reads")
	}
}

// TestWorldNewEngine checks the assembly: base peers and scheduled joiners
// come from the one factory, the schedule and publications reach the engine,
// and the returned collector is the engine's, registered.
func TestWorldNewEngine(t *testing.T) {
	w := Communities(40, 4, 2, 12, "w")
	w.Churn = FlashCrowd(4, 40, 3, 0)
	built := map[news.NodeID]int{}
	w.NewPeer = func(id news.NodeID) Peer {
		built[id]++
		return core.NewNode(id, "", core.Config{FLike: 3, RPSViewSize: 8}, w.Opinions, rand.New(rand.NewSource(int64(id))))
	}
	e, col := w.NewEngine(Config{Seed: 2, Cycles: 12, Workers: 1})
	if col != e.col || col.Node(42) == nil {
		t.Fatal("the engine must record into the world's registered collector")
	}
	if len(e.mem.members) != 40 || e.Peer(0).Overlay().RPS().View().Len() == 0 {
		t.Fatal("the base population must be built and bootstrapped")
	}
	e.Run()
	if len(e.mem.members) != 43 || len(built) != 43 || built[41] != 1 {
		t.Fatalf("joiners must come from the world's factory: members=%d built=%d", len(e.mem.members), len(built))
	}
	if col.Recall() == 0 || col.Node(41).Received == 0 {
		t.Fatal("publications must disseminate, to the joiners too")
	}
}
