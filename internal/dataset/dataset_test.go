package dataset

import (
	"testing"

	"whatsup/internal/news"
)

func TestSyntheticStructure(t *testing.T) {
	d := Synthetic(SyntheticConfig{Seed: 1, Scale: 0.05})
	if d.Users < 50 {
		t.Fatalf("too few users: %d", d.Users)
	}
	if len(d.Items) == 0 {
		t.Fatal("no items")
	}
	// Disjoint communities: every item is liked by exactly its community and
	// interested counts are consistent.
	for _, it := range d.Items {
		if it.Interested == 0 {
			t.Fatalf("item %d has no audience", it.Index)
		}
		if it.News.Source == news.NoNode {
			t.Fatalf("item %d has no source", it.Index)
		}
		if !d.Likes(it.News.Source, it.News.ID) {
			t.Fatalf("source must like its own item (item %d)", it.Index)
		}
	}
	// Users of different communities never share interests.
	likesOf := func(u news.NodeID) map[int]bool {
		out := map[int]bool{}
		for i := range d.Items {
			if d.LikesIndex(int(u), i) {
				out[d.Topic(i)] = true
			}
		}
		return out
	}
	for u := news.NodeID(0); u < 20; u++ {
		if len(likesOf(u)) > 1 {
			t.Fatalf("user %d likes items of multiple communities: %v", u, likesOf(u))
		}
	}
}

func TestSyntheticWithDetection(t *testing.T) {
	// Planted graph → CNM → communities at the smallest planted count (3).
	// Small scale so the O(n·m) detection stays fast in tests.
	d := Synthetic(SyntheticConfig{Seed: 2, Scale: 0.03})
	if d.Topics < 2 {
		t.Fatalf("detection found too few communities: %d", d.Topics)
	}
	total := 0
	for _, it := range d.Items {
		total += it.Interested
	}
	if total == 0 {
		t.Fatal("no interests at all")
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := Synthetic(SyntheticConfig{Seed: 3, Scale: 0.05})
	b := Synthetic(SyntheticConfig{Seed: 3, Scale: 0.05})
	if a.Users != b.Users || len(a.Items) != len(b.Items) {
		t.Fatal("same seed must give identical datasets")
	}
	for i := range a.Items {
		if a.Items[i].News.ID != b.Items[i].News.ID ||
			a.Items[i].Interested != b.Items[i].Interested ||
			a.Items[i].News.Source != b.Items[i].News.Source {
			t.Fatalf("item %d differs across same-seed generations", i)
		}
	}
}

func TestDiggStructure(t *testing.T) {
	d := Digg(DiggConfig{Seed: 4, Scale: 0.1})
	if d.Users != 75 || len(d.Items) != 250 {
		t.Fatalf("scaled digg dims wrong: users=%d items=%d", d.Users, len(d.Items))
	}
	if d.Social == nil || len(d.Social) != d.Users {
		t.Fatal("digg must carry a social graph")
	}
	edges := 0
	for u, out := range d.Social {
		edges += len(out)
		for _, v := range out {
			if int(v) == u {
				t.Fatal("self-follow")
			}
		}
	}
	if edges == 0 {
		t.Fatal("social graph is empty")
	}
	// Category model: a user likes either all or none of a category's items.
	for u := 0; u < 10; u++ {
		perCat := map[int]map[bool]bool{}
		for i := range d.Items {
			c := d.Topic(i)
			if perCat[c] == nil {
				perCat[c] = map[bool]bool{}
			}
			perCat[c][d.LikesIndex(u, i)] = true
		}
		for c, vals := range perCat {
			if vals[true] && vals[false] {
				t.Fatalf("user %d splits category %d", u, c)
			}
		}
	}
}

func TestSurveyStructure(t *testing.T) {
	d := Survey(SurveyConfig{Seed: 5, Scale: 0.1})
	if d.Users != 48 || len(d.Items) != 100 {
		t.Fatalf("scaled survey dims wrong: users=%d items=%d", d.Users, len(d.Items))
	}
	// Replication: user u and u+baseUsers rate identically.
	base := d.Users / 4
	baseItems := len(d.Items) / 4
	for u := 0; u < base; u++ {
		for i := 0; i < baseItems; i++ {
			if d.LikesIndex(u, i) != d.LikesIndex(u+base, i) {
				t.Fatalf("replica rating mismatch at user %d item %d", u, i)
			}
		}
	}
}

func TestOpinionsAdapter(t *testing.T) {
	d := Survey(SurveyConfig{Seed: 6, Scale: 0.05})
	op := d.Opinions()
	found := false
	for _, it := range d.Items {
		if it.Interested > 0 {
			u := d.InterestedUsers(it.Index)[0]
			if !op.Likes(u, it.News.ID) {
				t.Fatal("Opinions disagrees with Likes")
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no item with interest")
	}
	if op.Likes(0, news.ID(0xdead)) {
		t.Fatal("unknown items must be disliked")
	}
}

func TestUserInterestCount(t *testing.T) {
	d := Survey(SurveyConfig{Seed: 7, Scale: 0.05})
	for u := news.NodeID(0); int(u) < d.Users; u++ {
		count := 0
		for i := range d.Items {
			if d.LikesIndex(int(u), i) {
				count++
			}
		}
		if got := d.UserInterestCount(u); got != count {
			t.Fatalf("popcount mismatch for user %d: %d vs %d", u, got, count)
		}
	}
}

func TestSubscribers(t *testing.T) {
	d := Survey(SurveyConfig{Seed: 8, Scale: 0.05})
	for topic := 0; topic < d.Topics; topic++ {
		subs := map[news.NodeID]bool{}
		for _, u := range d.Subscribers(topic) {
			subs[u] = true
		}
		// Every user interested in an item of this topic must be subscribed
		// (that is what makes C-Pub/Sub recall 1).
		for i := range d.Items {
			if d.Topic(i) != topic {
				continue
			}
			for _, u := range d.InterestedUsers(i) {
				if !subs[u] {
					t.Fatalf("interested user %d not subscribed to topic %d", u, topic)
				}
			}
		}
	}
}

func TestFullProfiles(t *testing.T) {
	d := Survey(SurveyConfig{Seed: 9, Scale: 0.05})
	profiles := d.FullProfiles()
	if len(profiles) != d.Users {
		t.Fatalf("profiles=%d users=%d", len(profiles), d.Users)
	}
	for u, p := range profiles {
		if p.Len() != len(d.Items) {
			t.Fatalf("user %d profile covers %d of %d items", u, p.Len(), len(d.Items))
		}
		if p.Likes() != d.UserInterestCount(news.NodeID(u)) {
			t.Fatalf("user %d likes mismatch", u)
		}
	}
}

func TestItemByIDAndSummary(t *testing.T) {
	d := Digg(DiggConfig{Seed: 10, Scale: 0.05})
	it := d.Items[3]
	got, ok := d.ItemByID(it.News.ID)
	if !ok || got.Index != 3 {
		t.Fatal("ItemByID lookup failed")
	}
	if _, ok := d.ItemByID(news.ID(0x1234)); ok {
		t.Fatal("unknown id must miss")
	}
	if d.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestPublicationCyclesWithinRange(t *testing.T) {
	for _, d := range []*Dataset{
		Synthetic(SyntheticConfig{Seed: 11, Scale: 0.05}),
		Digg(DiggConfig{Seed: 11, Scale: 0.05}),
		Survey(SurveyConfig{Seed: 11, Scale: 0.05}),
	} {
		for _, it := range d.Items {
			if it.Cycle < 1 || it.Cycle > int64(d.Cycles) {
				t.Fatalf("%s item %d published at cycle %d outside [1,%d]",
					d.Name, it.Index, it.Cycle, d.Cycles)
			}
		}
	}
}
