package graph

import "sort"

// Undirected is a simple undirected graph used for community detection on
// collaboration networks (the synthetic Arxiv-style workload, Section IV-A).
type Undirected struct {
	adj []map[int]struct{}
	m   int // number of edges
}

// NewUndirected returns an empty undirected graph with n nodes.
func NewUndirected(n int) *Undirected {
	g := &Undirected{adj: make([]map[int]struct{}, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]struct{})
	}
	return g
}

// AddEdge inserts the undirected edge {u,v}; self-loops and duplicates are
// ignored.
func (g *Undirected) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return
	}
	if _, dup := g.adj[u][v]; dup {
		return
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.m++
}

// Communities detects communities with the greedy modularity algorithm of
// Newman ("Fast algorithm for detecting community structure in networks",
// Phys. Rev. E 2004), the algorithm the paper applies to the Arxiv
// collaboration graph. Starting from singleton communities it repeatedly
// merges the pair of connected communities with the largest modularity gain
// ΔQ = 2(e_ij − a_i·a_j) until no merge improves modularity. It returns the
// communities as sorted node-id slices, largest first.
func (g *Undirected) Communities() [][]int {
	n := len(g.adj)
	if n == 0 {
		return nil
	}
	if g.m == 0 {
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{i}
		}
		return out
	}

	// e[i][j]: fraction of edge ends connecting communities i and j.
	// a[i]: fraction of edge ends attached to community i.
	m2 := float64(2 * g.m)
	comm := make([]int, n) // node -> community label
	for i := range comm {
		comm[i] = i
	}
	e := make([]map[int]float64, n)
	a := make([]float64, n)
	for i := 0; i < n; i++ {
		e[i] = make(map[int]float64)
		for j := range g.adj[i] {
			e[i][j] += 1 / m2
		}
		a[i] = float64(len(g.adj[i])) / m2
	}
	alive := make([]bool, n)
	members := make([][]int, n)
	for i := 0; i < n; i++ {
		alive[i] = true
		members[i] = []int{i}
	}

	for {
		// Find the best merge among connected community pairs.
		bestI, bestJ, bestDQ := -1, -1, 0.0
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j, eij := range e[i] {
				if j <= i || !alive[j] {
					continue
				}
				dq := 2 * (eij - a[i]*a[j])
				// Equal gains are common (every edge of a regular graph
				// ties); the lowest pair wins, whatever order the map
				// yields its keys in.
				if dq > bestDQ || (dq == bestDQ && i == bestI && j < bestJ) {
					bestI, bestJ, bestDQ = i, j, dq
				}
			}
		}
		if bestI < 0 {
			break
		}
		// Merge bestJ into bestI.
		for k, ejk := range e[bestJ] {
			if k == bestI || k == bestJ {
				continue
			}
			e[bestI][k] += ejk
			e[k][bestI] += ejk
			delete(e[k], bestJ)
		}
		// Internal edges of the merged community.
		internal := e[bestI][bestJ]
		delete(e[bestI], bestJ)
		e[bestI][bestI] += e[bestJ][bestJ] + 2*internal
		a[bestI] += a[bestJ]
		alive[bestJ] = false
		e[bestJ] = nil
		members[bestI] = append(members[bestI], members[bestJ]...)
		members[bestJ] = nil
		for _, node := range members[bestI] {
			comm[node] = bestI
		}
	}

	var out [][]int
	for i := 0; i < n; i++ {
		if alive[i] {
			c := append([]int(nil), members[i]...)
			sort.Ints(c)
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}
