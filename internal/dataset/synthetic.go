package dataset

import (
	"fmt"
	"math/rand"

	"whatsup/internal/graph"
	"whatsup/internal/news"
)

// SyntheticConfig parameterizes the Arxiv-style synthetic workload
// (Section IV-A). At Scale 1 it matches Table I: ≈3180 users in 21 interest
// communities (sizes between ~31 and ~1036, as in the paper's detected
// communities) and ≈2000 news items, 120 per large community.
type SyntheticConfig struct {
	Seed  int64
	Scale float64 // 1.0 = paper scale; smaller values shrink users and items
}

// communitySizes draws the planted community sizes with the paper's skew
// (min ~31, max ~1036 at scale 1) summing to roughly 3180·scale users: 21
// communities at paper scale, fewer when shrunk, so each community keeps
// enough items per profile window for the similarity signal to exist.
func communitySizes(scale float64, rng *rand.Rand) []int {
	communities := max(3, int(21*scale+0.5))
	minSize := max(2, int(31*scale))
	sizes := make([]int, communities)
	// Geometric progression of weights gives a few large and many small
	// communities, mimicking detected collaboration communities.
	weights := make([]float64, communities)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / float64(i+1) // Zipf-ish
		wsum += weights[i]
	}
	totalUsers := int(3180 * scale)
	remaining := totalUsers - minSize*communities
	if remaining < 0 {
		remaining = 0
	}
	for i := range sizes {
		sizes[i] = minSize + int(float64(remaining)*weights[i]/wsum)
	}
	// Shuffle so community id does not correlate with size.
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// Synthetic generates the synthetic community workload. It builds a planted-
// partition collaboration graph (dense intra-community, sparse inter-
// community co-authorship), detects communities with greedy modularity
// (Newman 2004) as the paper did on the Arxiv graph, and derives strictly
// disjoint interests: a user likes exactly the items of her community.
func Synthetic(cfg SyntheticConfig) *Dataset {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sizes := communitySizes(cfg.Scale, rng)
	var planted [][]int // community -> member users
	n := 0
	for _, s := range sizes {
		members := make([]int, s)
		for i := range members {
			members[i] = n + i
		}
		planted = append(planted, members)
		n += s
	}

	communities := detectCommunities(planted, n, rng)

	// Keep communities of at least the planted minimum size; smaller
	// fragments (detection noise) are merged into the nearest community by
	// appending to the smallest kept one, so every user gets interests.
	minKeep := max(2, int(31*cfg.Scale)/2)
	var kept [][]int
	var leftovers []int
	for _, c := range communities {
		if len(c) >= minKeep {
			kept = append(kept, c)
		} else {
			leftovers = append(leftovers, c...)
		}
	}
	if len(kept) == 0 {
		kept = communities
		leftovers = nil
	}
	for i, u := range leftovers {
		kept[i%len(kept)] = append(kept[i%len(kept)], u)
	}

	itemsPerCommunity := max(2, int(120*cfg.Scale)) // Table I: 120 per community
	totalItems := itemsPerCommunity * len(kept)
	d := newDataset("synthetic", n, totalItems, defaultCycles, len(kept))
	k := 0
	for ci, members := range kept {
		for j := 0; j < itemsPerCommunity; j++ {
			title := fmt.Sprintf("synthetic-%d-%d", ci, j)
			it := news.New(title, "community item", "arxiv://"+title, 0, 0)
			it.Community = ci
			cycle := spreadCycle(k, totalItems, defaultCycles)
			it.Created = cycle
			idx := d.addItem(it, cycle, ci)
			for _, u := range members {
				d.setLike(u, idx)
			}
			d.setSource(idx, news.NodeID(members[rng.Intn(len(members))]))
			k++
		}
	}
	d.finalize()
	return d
}

// detectCommunities builds the collaboration graph from the planted
// partition (intra-community co-authorship is dense, inter sparse) and runs
// greedy-modularity detection on it, returning the detected communities.
func detectCommunities(planted [][]int, n int, rng *rand.Rand) [][]int {
	g := graph.NewUndirected(n)
	for _, members := range planted {
		// ~4 intra edges per member keeps components connected and dense
		// enough for detection.
		for _, u := range members {
			for t := 0; t < 4; t++ {
				v := members[rng.Intn(len(members))]
				g.AddEdge(u, v)
			}
		}
	}
	// Sparse inter-community noise: ~5% of users get one random edge.
	for u := 0; u < n; u++ {
		if rng.Float64() < 0.05 {
			g.AddEdge(u, rng.Intn(n))
		}
	}
	return g.Communities()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
