package dataset

import (
	"fmt"
	"math/rand"

	"whatsup/internal/news"
)

// DiggConfig parameterizes the Digg-like workload (Section IV-A). At Scale 1
// it matches Table I: 750 users, 2500 news items, 40 categories, plus an
// explicit directed follower graph for the cascading baseline.
type DiggConfig struct {
	Seed  int64
	Scale float64 // 1.0 = paper scale (also the zero value's meaning)
}

const (
	diggCategories = 40 // Table I
	// diggFollowDegree sets the follower graph's out-degrees: uniform on
	// 1..2·diggFollowDegree, so 5.5 on average.
	diggFollowDegree = 5
)

// Digg generates the Digg-like workload. Interests follow the paper's
// de-biasing procedure: each user is characterized by the categories of the
// items she generates, and likes all items of those categories. Category
// popularity is Zipf-distributed, so a few categories are mainstream and
// most are niche. The explicit follower graph is built by preferential
// attachment and is deliberately uncorrelated with categories, which is the
// property behind cascading's low recall (Table V).
func Digg(cfg DiggConfig) *Dataset {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	users := max(10, int(750*cfg.Scale))
	items := max(20, int(2500*cfg.Scale))

	// Zipf over categories: s=1.2 gives a popular head and a long tail.
	zipf := rand.NewZipf(rng, 1.2, 1, diggCategories-1)

	// Each user "generates" items in 1..3 categories; those define her
	// interests. Keeping interest sets narrow relative to the 40 categories
	// is what makes the follower graph interest-agnostic: most followers of
	// a liker do not share the item's category, so cascades die out — the
	// effect behind cascading's low recall in Table V.
	userCats := make([]map[int]bool, users)
	for u := range userCats {
		userCats[u] = make(map[int]bool)
		k := 1 + rng.Intn(3)
		for len(userCats[u]) < k {
			userCats[u][int(zipf.Uint64())] = true
		}
	}

	d := newDataset("digg", users, items, defaultCycles, diggCategories)
	for k := 0; k < items; k++ {
		cat := int(zipf.Uint64())
		title := fmt.Sprintf("digg-%d", k)
		it := news.New(title, fmt.Sprintf("category %d", cat), "digg://"+title, 0, 0)
		it.Community = cat
		cycle := spreadCycle(k, items, defaultCycles)
		it.Created = cycle
		idx := d.addItem(it, cycle, cat)
		var interested []int
		for u := 0; u < users; u++ {
			if userCats[u][cat] {
				d.setLike(u, idx)
				interested = append(interested, u)
			}
		}
		if len(interested) > 0 {
			// The item is "generated" by one of the users of its category.
			d.setSource(idx, news.NodeID(interested[rng.Intn(len(interested))]))
		}
	}

	// Preferential-attachment follower graph (directed out-edges).
	d.Social = make([][]news.NodeID, users)
	degreeSum := 0
	inDegree := make([]int, users)
	pickTarget := func(u int) int {
		// Preferential attachment with uniform fallback.
		if degreeSum > 0 && rng.Float64() < 0.7 {
			r := rng.Intn(degreeSum)
			for v := 0; v < users; v++ {
				r -= inDegree[v]
				if r < 0 {
					return v
				}
			}
		}
		return rng.Intn(users)
	}
	for u := 0; u < users; u++ {
		want := 1 + rng.Intn(2*diggFollowDegree)
		seen := map[int]bool{u: true}
		for len(d.Social[u]) < want && len(seen) < users {
			v := pickTarget(u)
			if seen[v] {
				continue
			}
			seen[v] = true
			d.Social[u] = append(d.Social[u], news.NodeID(v))
			inDegree[v]++
			degreeSum++
		}
	}

	d.finalize()
	return d
}
