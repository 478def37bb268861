package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestSCCSingleCycle(t *testing.T) {
	g := NewDirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	comps := g.SCC()
	if len(comps) != 1 || len(comps[0]) != 4 {
		t.Fatalf("cycle must be one SCC, got %v", comps)
	}
	if g.LargestSCCFraction() != 1 {
		t.Fatalf("LSCC fraction=%v want 1", g.LargestSCCFraction())
	}
}

func TestSCCChain(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	comps := g.SCC()
	if len(comps) != 3 {
		t.Fatalf("chain must be 3 singleton SCCs, got %v", comps)
	}
}

func TestSCCTwoCyclesBridged(t *testing.T) {
	g := NewDirected(6)
	// cycle {0,1,2}, cycle {3,4,5}, one-way bridge 2->3.
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	g.AddEdge(2, 3)
	comps := g.SCC()
	if len(comps) != 2 {
		t.Fatalf("want 2 SCCs, got %d: %v", len(comps), comps)
	}
	if g.LargestSCCFraction() != 0.5 {
		t.Fatalf("LSCC fraction=%v want 0.5", g.LargestSCCFraction())
	}
}

func TestSCCSelfLoopAndDuplicatesIgnored(t *testing.T) {
	g := NewDirected(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(-1, 1)
	g.AddEdge(0, 5)
	if len(g.out[0]) != 1 || len(g.out[1]) != 0 {
		t.Fatalf("adjacency=%v want [[1] []]", g.out)
	}
}

func TestSCCLargeRandomAgreesWithReachability(t *testing.T) {
	// Property: u,v in the same SCC iff v reachable from u and u from v.
	rng := rand.New(rand.NewSource(1))
	const n = 60
	g := NewDirected(n)
	for i := 0; i < 150; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	reach := make([][]bool, n)
	for u := 0; u < n; u++ {
		reach[u] = make([]bool, n)
		stack := []int{u}
		reach[u][u] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.out[x] {
				if !reach[u][w] {
					reach[u][w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	comp := make([]int, n)
	for ci, c := range g.SCC() {
		for _, v := range c {
			comp[v] = ci
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			same := comp[u] == comp[v]
			mutual := reach[u][v] && reach[v][u]
			if same != mutual {
				t.Fatalf("SCC disagreement at (%d,%d): same=%v mutual=%v", u, v, same, mutual)
			}
		}
	}
}

func TestWeakComponents(t *testing.T) {
	g := NewDirected(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 1) // weakly joins {0,1,2}
	g.AddEdge(3, 4)
	if got := g.WeakComponents(); got != 3 { // {0,1,2} {3,4} {5}
		t.Fatalf("weak components=%d want 3", got)
	}
}

func TestClusteringCoefficientTriangleAndStar(t *testing.T) {
	tri := NewDirected(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	if cc := tri.ClusteringCoefficient(); cc != 1 {
		t.Fatalf("triangle cc=%v want 1", cc)
	}
	star := NewDirected(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	if cc := star.ClusteringCoefficient(); cc != 0 {
		t.Fatalf("star cc=%v want 0", cc)
	}
}

func TestClusteringCoefficientEmpty(t *testing.T) {
	if cc := NewDirected(0).ClusteringCoefficient(); cc != 0 {
		t.Fatalf("empty graph cc=%v", cc)
	}
	if cc := NewDirected(3).ClusteringCoefficient(); cc != 0 {
		t.Fatalf("edgeless graph cc=%v", cc)
	}
}

func TestCommunitiesTwoCliques(t *testing.T) {
	g := NewUndirected(8)
	clique := func(ids ...int) {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				g.AddEdge(ids[i], ids[j])
			}
		}
	}
	clique(0, 1, 2, 3)
	clique(4, 5, 6, 7)
	g.AddEdge(3, 4) // single bridge
	comms := g.Communities()
	if len(comms) != 2 {
		t.Fatalf("want 2 communities, got %d: %v", len(comms), comms)
	}
	if len(comms[0]) != 4 || len(comms[1]) != 4 {
		t.Fatalf("wrong community sizes: %v", comms)
	}
}

func TestCommunitiesPlantedPartition(t *testing.T) {
	// 3 groups of 20: dense inside (p=0.5), sparse across (p=0.02).
	rng := rand.New(rand.NewSource(2))
	const groups, size = 3, 20
	n := groups * size
	g := NewUndirected(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := 0.02
			if u/size == v/size {
				p = 0.5
			}
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	comms := g.Communities()
	if len(comms) < 2 || len(comms) > 6 {
		t.Fatalf("planted partition recovered %d communities", len(comms))
	}
	// The largest community must be dominated by one planted group.
	counts := map[int]int{}
	for _, v := range comms[0] {
		counts[v/size]++
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	if float64(best)/float64(len(comms[0])) < 0.8 {
		t.Fatalf("largest community mixes groups: %v", counts)
	}
	// Modularity of the detected partition must beat the trivial one.
	assign := make([]int, n)
	for ci, c := range comms {
		for _, v := range c {
			assign[v] = ci
		}
	}
	if q := modularity(g, assign); q < 0.3 {
		t.Fatalf("modularity too low: %v", q)
	}
}

func TestCommunitiesEdgeCases(t *testing.T) {
	if got := NewUndirected(0).Communities(); got != nil {
		t.Fatalf("empty graph: %v", got)
	}
	g := NewUndirected(3) // no edges: singletons
	comms := g.Communities()
	if len(comms) != 3 {
		t.Fatalf("edgeless graph must yield singletons, got %v", comms)
	}
}

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(1, 1) // self loop
	if g.m != 1 {
		t.Fatalf("m=%d want 1", g.m)
	}
	if _, ok := g.adj[1][0]; !ok || len(g.adj[1]) != 1 {
		t.Fatalf("neighbors of 1: %v", g.adj[1])
	}
}

func TestModularityPerfectSplitBeatsMerged(t *testing.T) {
	g := NewUndirected(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	split := []int{0, 0, 0, 1, 1, 1}
	merged := []int{0, 0, 0, 0, 0, 0}
	if modularity(g, split) <= modularity(g, merged) {
		t.Fatalf("split=%v merged=%v", modularity(g, split), modularity(g, merged))
	}
}

// TestCommunitiesDeterministicUnderTies is the regression for a merge order
// that followed map iteration: on a ring every edge offers the same
// modularity gain, so which neighbour a community absorbed first — and with
// it the final partition — changed from call to call. The synthetic
// workload inherited it (27 or 36 items at seed 3, scale 0.08).
func TestCommunitiesDeterministicUnderTies(t *testing.T) {
	const n = 12
	g := NewUndirected(n)
	for u := 0; u < n; u++ {
		g.AddEdge(u, (u+1)%n)
	}
	want := fmt.Sprint(g.Communities())
	for i := 0; i < 50; i++ {
		if got := fmt.Sprint(g.Communities()); got != want {
			t.Fatalf("call %d found %s, the first call %s", i, got, want)
		}
	}
}

// modularity computes Newman's modularity Q of a partition, provided as a
// node→community assignment, to sanity-check detected communities.
func modularity(g *Undirected, assign []int) float64 {
	if g.m == 0 {
		return 0
	}
	m2 := float64(2 * g.m)
	inFrac := make(map[int]float64)
	degFrac := make(map[int]float64)
	for u := range g.adj {
		degFrac[assign[u]] += float64(len(g.adj[u])) / m2
		for v := range g.adj[u] {
			if assign[u] == assign[v] {
				inFrac[assign[u]] += 1 / m2
			}
		}
	}
	var q float64
	for c, in := range inFrac {
		q += in - degFrac[c]*degFrac[c]
	}
	for c, d := range degFrac {
		if _, ok := inFrac[c]; !ok {
			q -= d * d
		}
	}
	return q
}
