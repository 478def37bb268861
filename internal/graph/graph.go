// Package graph provides the graph analytics used by the evaluation:
// strongly/weakly connected components and clustering coefficients of WUP
// overlay snapshots (paper Section V-A, Figure 4), and greedy-modularity
// community detection (Clauset-Newman-Moore / Newman 2004) used to derive
// interest communities for the synthetic Arxiv-style dataset (Section IV-A).
package graph

import "sort"

// Directed is a directed graph over nodes 0..N-1 with adjacency lists.
type Directed struct {
	out [][]int
}

// NewDirected returns an empty directed graph with n nodes.
func NewDirected(n int) *Directed {
	return &Directed{out: make([][]int, n)}
}

// AddEdge inserts the edge u→v. Self-loops and duplicates are ignored.
func (g *Directed) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= len(g.out) || v >= len(g.out) {
		return
	}
	for _, w := range g.out[u] {
		if w == v {
			return
		}
	}
	g.out[u] = append(g.out[u], v)
}

// SCC computes the strongly connected components with Tarjan's algorithm
// (iterative, so deep overlays cannot overflow the goroutine stack).
// It returns one slice of node ids per component.
func (g *Directed) SCC() [][]int {
	n := len(g.out)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		counter int
		stack   []int // Tarjan stack
		comps   [][]int
	)

	type frame struct {
		v, child int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call := []frame{{v: root}}
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.child == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.child < len(g.out[v]) {
				w := g.out[v][f.child]
				f.child++
				if index[w] == unvisited {
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished: pop component if root, propagate lowlink.
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				comps = append(comps, comp)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return comps
}

// LargestSCCFraction returns |largest SCC| / N, the Figure 4 measure.
func (g *Directed) LargestSCCFraction() float64 {
	if len(g.out) == 0 {
		return 0
	}
	best := 0
	for _, c := range g.SCC() {
		if len(c) > best {
			best = len(c)
		}
	}
	return float64(best) / float64(len(g.out))
}

// WeakComponents returns the number of weakly connected components,
// the fragmentation measure quoted in Section V-A (average number of
// components at small fanouts).
func (g *Directed) WeakComponents() int {
	n := len(g.out)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for u, adj := range g.out {
		for _, v := range adj {
			union(u, v)
		}
	}
	roots := make(map[int]struct{}, n)
	for i := 0; i < n; i++ {
		roots[find(i)] = struct{}{}
	}
	return len(roots)
}

// ClusteringCoefficient returns the average local clustering coefficient of
// the undirected version of the graph: for each node, the fraction of pairs
// of neighbours that are themselves connected. The paper reports ~0.15 for
// WUP-metric topologies vs ~0.40 for cosine ones (Section V-A).
func (g *Directed) ClusteringCoefficient() float64 {
	n := len(g.out)
	if n == 0 {
		return 0
	}
	und := make([]map[int]struct{}, n)
	for i := range und {
		und[i] = make(map[int]struct{})
	}
	for u, adj := range g.out {
		for _, v := range adj {
			und[u][v] = struct{}{}
			und[v][u] = struct{}{}
		}
	}
	var total float64
	counted := 0
	for u := 0; u < n; u++ {
		deg := len(und[u])
		if deg < 2 {
			continue
		}
		neigh := make([]int, 0, deg)
		for v := range und[u] {
			neigh = append(neigh, v)
		}
		links := 0
		for i := 0; i < len(neigh); i++ {
			for j := i + 1; j < len(neigh); j++ {
				if _, ok := und[neigh[i]][neigh[j]]; ok {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(deg*(deg-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
