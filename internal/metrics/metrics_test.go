package metrics

import (
	"math"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
)

func deliver(c *Collector, node news.NodeID, item news.ID, liked bool, hops, dislikes int, via bool) {
	c.RecordDelivery(core.Delivery{
		Node: node, Item: item, Liked: liked, Hops: hops, Dislikes: dislikes, ViaDislike: via,
	})
}

func TestPrecisionRecallF1(t *testing.T) {
	c := NewCollector()
	c.RegisterItem(1, 4) // 4 interested users
	deliver(c, 0, 1, true, 1, 0, false)
	deliver(c, 1, 1, true, 2, 0, false)
	deliver(c, 2, 1, false, 2, 0, false)
	// precision = 2/3, recall = 2/4.
	if p := c.Precision(); math.Abs(p-2.0/3) > 1e-12 {
		t.Fatalf("precision=%v want 2/3", p)
	}
	if r := c.Recall(); math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("recall=%v want 0.5", r)
	}
	want := 2 * (2.0 / 3) * 0.5 / (2.0/3 + 0.5)
	if f := c.F1(); math.Abs(f-want) > 1e-12 {
		t.Fatalf("f1=%v want %v", f, want)
	}
	c.RecordMessage(MsgBeep, 10)
	c.RecordMessage(MsgRPSRequest, 20)
	if q := c.Quality(); q != (Quality{c.Precision(), c.Recall(), c.F1(), 2}) {
		t.Fatalf("Quality()=%+v must be the four accessor reads", q)
	}
}

func TestMacroAveragingAcrossItems(t *testing.T) {
	c := NewCollector()
	c.RegisterItem(1, 1)
	c.RegisterItem(2, 2)
	deliver(c, 0, 1, true, 1, 0, false) // item 1: P=1, R=1
	deliver(c, 0, 2, false, 1, 0, false)
	deliver(c, 1, 2, true, 1, 0, false) // item 2: P=1/2, R=1/2
	if p := c.Precision(); math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("macro precision=%v want 0.75", p)
	}
	if r := c.Recall(); math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("macro recall=%v want 0.75", r)
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	c := NewCollector()
	c.RegisterItem(1, 1)
	c.RecordDelivery(core.Delivery{Node: 0, Item: 1, Liked: true, Duplicate: true})
	if c.Recall() != 0 {
		t.Fatal("duplicate deliveries must not count")
	}
}

func TestUnregisteredItemStillTracked(t *testing.T) {
	c := NewCollector()
	deliver(c, 0, 9, true, 1, 0, false)
	if st := c.Item(9); st == nil || st.Reached != 1 {
		t.Fatalf("unregistered item must be tracked on the fly: %+v", st)
	}
	// But with Interested unset it contributes nothing to recall.
	if r := c.Recall(); r != 0 {
		t.Fatalf("recall=%v want 0", r)
	}
}

func TestMessageAccounting(t *testing.T) {
	c := NewCollector()
	c.RecordMessage(MsgBeep, 100)
	c.RecordMessage(MsgBeep, 50)
	c.RecordMessage(MsgRPSRequest, 10)
	c.RecordMessage(MsgWUPReply, 20)
	if c.Messages(MsgBeep) != 2 || c.Bytes(MsgBeep) != 150 {
		t.Fatal("beep accounting wrong")
	}
	if c.TotalMessages() != 4 {
		t.Fatalf("total=%d want 4", c.TotalMessages())
	}
	if c.GossipMessages() != 2 || c.GossipBytes() != 30 {
		t.Fatal("gossip accounting wrong")
	}
	if c.TotalBytes() != 180 {
		t.Fatalf("total bytes=%d want 180", c.TotalBytes())
	}
	if c.TotalBytes() != c.GossipBytes()+c.Bytes(MsgBeep) {
		t.Fatal("byte decomposition must sum")
	}
}

func TestDislikeFractions(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 6; i++ {
		deliver(c, news.NodeID(i), 1, true, 1, 0, false)
	}
	for i := 6; i < 9; i++ {
		deliver(c, news.NodeID(i), 1, true, 1, 1, true)
	}
	deliver(c, 9, 1, true, 1, 7, true) // beyond maxD: folded into last bucket
	fr := c.DislikeFractions(4)
	if math.Abs(fr[0]-0.6) > 1e-12 || math.Abs(fr[1]-0.3) > 1e-12 || math.Abs(fr[4]-0.1) > 1e-12 {
		t.Fatalf("fractions=%v", fr)
	}
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions must sum to 1, got %v", sum)
	}
}

func TestNodeStatsAndF1(t *testing.T) {
	c := NewCollector()
	c.RegisterNode(5, 4)
	deliver(c, 5, 1, true, 1, 0, false)
	deliver(c, 5, 2, false, 1, 0, true)
	ns := c.Node(5)
	if ns.Received != 2 || ns.ReceivedLiked != 1 || ns.DislikeDeliveries != 1 {
		t.Fatalf("node stats wrong: %+v", ns)
	}
	// precision 1/2, recall 1/4 → F1 = 1/3.
	if f := ns.F1(); math.Abs(f-1.0/3) > 1e-12 {
		t.Fatalf("node F1=%v want 1/3", f)
	}
	if (&NodeStats{}).F1() != 0 {
		t.Fatal("empty node stats must have F1 0")
	}
}

func TestRecallByPopularity(t *testing.T) {
	c := NewCollector()
	c.RegisterItem(1, 2)                // popularity 0.2 of 10
	c.RegisterItem(2, 8)                // popularity 0.8
	deliver(c, 0, 1, true, 1, 0, false) // recall 0.5
	for i := 0; i < 8; i++ {
		deliver(c, news.NodeID(i), 2, true, 1, 0, false) // recall 1
	}
	bks := c.RecallByPopularity(10, 5)
	if len(bks) != 5 {
		t.Fatalf("buckets=%d want 5", len(bks))
	}
	// popularity 0.2 → bucket index int(0.2·5)=1; popularity 0.8 → bucket 4.
	if bks[1].Count != 1 || math.Abs(bks[1].Y-0.5) > 1e-12 {
		t.Fatalf("low-popularity bucket wrong: %+v", bks[1])
	}
	if bks[0].Count != 0 || bks[2].Count != 0 {
		t.Fatalf("empty buckets must report zero count: %+v %+v", bks[0], bks[2])
	}
	if bks[4].Count != 1 || bks[4].Y != 1 {
		t.Fatalf("high-popularity bucket wrong: %+v", bks[4])
	}
}

func TestSociability(t *testing.T) {
	mk := func(ids ...news.ID) *profile.Profile {
		p := profile.New()
		for _, id := range ids {
			p.Set(id, 0, 1)
		}
		return p
	}
	profiles := []*profile.Profile{
		mk(1, 2, 3), mk(1, 2, 3), mk(1, 2), mk(42),
	}
	soc := Sociability(profiles, profile.WUP{}, 2)
	if len(soc) != 4 {
		t.Fatalf("len=%d", len(soc))
	}
	if soc[0] <= soc[3] {
		t.Fatalf("sociable node must beat loner: %v vs %v", soc[0], soc[3])
	}
	if soc[3] != 0 {
		t.Fatalf("disjoint node sociability=%v want 0", soc[3])
	}
	if got := Sociability(nil, profile.WUP{}, 2); len(got) != 0 {
		t.Fatal("empty input must yield empty output")
	}
}

func TestF1BySociability(t *testing.T) {
	c := NewCollector()
	c.RegisterNode(0, 2)
	c.RegisterNode(1, 2)
	deliver(c, 0, 1, true, 1, 0, false)
	deliver(c, 0, 2, true, 1, 0, false) // node 0: P=1,R=1 → F1=1
	deliver(c, 1, 3, false, 1, 0, false)
	soc := map[news.NodeID]float64{0: 0.9, 1: 0.1}
	bks := c.F1BySociability(soc, 2)
	if bks[1].Count != 1 || bks[1].Y != 1 {
		t.Fatalf("high-sociability bucket wrong: %+v", bks[1])
	}
	if bks[0].Count != 1 || bks[0].Y != 0 {
		t.Fatalf("low-sociability bucket wrong: %+v", bks[0])
	}
}

func TestMerge(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.RegisterItem(1, 2)
	deliver(a, 0, 1, true, 1, 0, false)
	deliver(b, 1, 1, true, 2, 1, true)
	b.RecordMessage(MsgBeep, 10)
	b.RecordForward(false, 2)
	a.Merge(b)
	st := a.Item(1)
	if st.Reached != 2 || st.ReachedInterested != 2 || st.Interested != 2 {
		t.Fatalf("merged item stats wrong: %+v", st)
	}
	if a.Messages(MsgBeep) != 1 {
		t.Fatal("merged message counts wrong")
	}
	if a.ForwardByDislike[2] != 1 {
		t.Fatal("merged histograms wrong")
	}
	if a.DislikesAtLikedArrival[1] != 1 {
		t.Fatal("merged dislike histogram wrong")
	}
}

func TestKbpsPerNode(t *testing.T) {
	// 1000 bytes over 10 cycles of 30 s across 2 nodes:
	// 8000 bits / 300 s / 2 = 13.33 bps = 0.0133 Kbps.
	got := KbpsPerNode(1000, 10, 30, 2)
	if math.Abs(got-8.0/300/2) > 1e-9 {
		t.Fatalf("KbpsPerNode=%v", got)
	}
	if KbpsPerNode(1000, 0, 30, 2) != 0 {
		t.Fatal("zero cycles must yield 0")
	}
}

func TestMessageKindString(t *testing.T) {
	names := map[MessageKind]string{
		MsgBeep: "beep", MsgRPSRequest: "rps-request", MsgRPSReply: "rps-reply",
		MsgWUPRequest: "wup-request", MsgWUPReply: "wup-reply",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("String(%d)=%q want %q", k, k.String(), want)
		}
	}
	if MessageKind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestF1Of(t *testing.T) {
	if F1Of(0, 0) != 0 {
		t.Fatal("F1Of(0,0)")
	}
	if math.Abs(F1Of(1, 1)-1) > 1e-12 {
		t.Fatal("F1Of(1,1)")
	}
}

func TestCohortSummaryAndMerge(t *testing.T) {
	c := NewCollector()
	for id := news.NodeID(0); id < 4; id++ {
		c.RegisterNode(id, 10)
	}
	c.SetCohort(2, CohortJoiner)
	c.SetCohort(3, CohortRejoiner)
	c.RegisterItem(1, 4)
	// Node 0 (stable): 2 liked of 3 received; node 2 (joiner): 1 liked of 2.
	deliver := func(node news.NodeID, liked bool) {
		c.RecordDelivery(core.Delivery{Node: node, Item: 1, Liked: liked})
	}
	// Distinct items per delivery are irrelevant to node stats; reuse item 1.
	deliver(0, true)
	deliver(0, true)
	deliver(0, false)
	deliver(2, true)
	deliver(2, false)

	st := c.CohortSummary(CohortStable)
	if st.Nodes != 2 || st.Received != 3 || st.ReceivedLiked != 2 || st.Interested != 20 {
		t.Fatalf("stable summary %+v", st)
	}
	if got := st.Precision(); got != 2.0/3.0 {
		t.Fatalf("stable precision %v", got)
	}
	jo := c.CohortSummary(CohortJoiner)
	if jo.Nodes != 1 || jo.Received != 2 || jo.ReceivedLiked != 1 {
		t.Fatalf("joiner summary %+v", jo)
	}
	if got := jo.Recall(); got != 0.1 {
		t.Fatalf("joiner recall %v", got)
	}
	if d := c.CohortSummary(CohortRejoiner).Dissemination(); d != 0 {
		t.Fatalf("rejoiner dissemination %v", d)
	}

	// Merge: cohort labels union commutatively with highest-label-wins.
	a, b := NewCollector(), NewCollector()
	a.SetCohort(7, CohortJoiner)
	b.SetCohort(7, CohortRejoiner)
	b.SetCohort(8, CohortDeparted)
	a.Merge(b)
	if a.CohortOf(7) != CohortRejoiner || a.CohortOf(8) != CohortDeparted {
		t.Fatalf("merge labels: %v, %v", a.CohortOf(7), a.CohortOf(8))
	}
	b2, a2 := NewCollector(), NewCollector()
	b2.SetCohort(7, CohortRejoiner)
	a2.SetCohort(7, CohortJoiner)
	b2.Merge(a2)
	if b2.CohortOf(7) != a.CohortOf(7) {
		t.Fatal("cohort merge is not commutative")
	}
	if a.CohortOf(99) != CohortStable {
		t.Fatal("unlabelled nodes default to the stable cohort")
	}
}

// TestEligibleRecall pins the join-time-aware recall denominator: a late
// joiner's eligible interest count shrinks its recall denominator while the
// conservative whole-trace figure stays.
func TestEligibleRecall(t *testing.T) {
	c := NewCollector()
	c.RegisterNode(1, 10) // joined late: only 4 of its 10 liked items post-join
	c.SetEligibleInterested(1, 4)
	c.SetCohort(1, CohortJoiner)
	c.RegisterNode(2, 10) // stable: eligible defaults to the full count
	for i := 0; i < 2; i++ {
		c.RecordDelivery(core.Delivery{Node: 1, Item: news.ID(i), Liked: true})
	}
	jo := c.CohortSummary(CohortJoiner)
	if jo.Interested != 10 || jo.EligibleInterested != 4 {
		t.Fatalf("joiner denominators %+v", jo)
	}
	if got := jo.Recall(); got != 0.2 {
		t.Fatalf("conservative recall %v, want 0.2", got)
	}
	if got := jo.EligibleRecall(); got != 0.5 {
		t.Fatalf("join-aware recall %v, want 0.5", got)
	}
	if jo.EligibleF1() <= jo.F1() {
		t.Fatal("join-aware F1 must exceed the conservative one here")
	}
	st := c.CohortSummary(CohortStable)
	if st.EligibleInterested != st.Interested {
		t.Fatalf("stable eligible denominator must default to the full count: %+v", st)
	}

	// The denominator survives a merge (registration-side, like Interested).
	m := NewCollector()
	m.Merge(c)
	if got := m.CohortSummary(CohortJoiner).EligibleInterested; got != 4 {
		t.Fatalf("merge lost the eligible denominator: %d", got)
	}
	// SetEligibleInterested before registration must not be lost — a later
	// RegisterNode updates Interested but keeps the eligible override.
	pre := NewCollector()
	pre.SetEligibleInterested(5, 3)
	if pre.Node(5).EligibleInterested != 3 {
		t.Fatal("pre-registration eligible count dropped")
	}
	pre.RegisterNode(5, 10)
	if ns := pre.Node(5); ns.Interested != 10 || ns.EligibleInterested != 3 {
		t.Fatalf("RegisterNode wiped the eligible override: %+v", ns)
	}
}

func TestFleetHealth(t *testing.T) {
	online := map[news.NodeID]bool{1: true, 2: true}
	h := NewFleetHealth(7, 5, func(id news.NodeID) bool { return online[id] })
	view := func(ids ...news.NodeID) []overlay.Descriptor {
		out := make([]overlay.Descriptor, len(ids))
		for i, id := range ids {
			out[i].Node = id
		}
		return out
	}
	h.AddNode(CohortStable)
	h.AddView(core.RPSLayer, 4, view(2, 3)) // 3 is a ghost
	h.AddView(core.WUPLayer, 2, view(2))
	h.AddNode(CohortJoiner)
	h.AddView(core.RPSLayer, 2, view(1, 9)) // 9 was never a member
	s := h.Sample()
	if s.Cycle != 7 || s.Members != 5 || s.Online != 2 {
		t.Fatalf("sample header %+v", s)
	}
	if s.OnlineByCohort[CohortStable] != 1 || s.OnlineByCohort[CohortJoiner] != 1 {
		t.Fatalf("cohort split %v", s.OnlineByCohort)
	}
	// Fill is total occupancy over total capacity, per layer: a node without
	// a WUP view contributes to neither side of that layer's ratio.
	if s.GhostFraction != 2.0/5 || s.RPSFill != 4.0/6 || s.WUPFill != 1.0/2 {
		t.Fatalf("ghost=%v rps=%v wup=%v", s.GhostFraction, s.RPSFill, s.WUPFill)
	}
	if empty := NewFleetHealth(1, 0, nil).Sample(); empty.GhostFraction != 0 || empty.RPSFill != 0 {
		t.Fatalf("empty fleet sample %+v", empty)
	}
}
