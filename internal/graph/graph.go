// Package graph provides the graph substrate for the paper's §4–§5
// applications: bitset-adjacency undirected graphs, Erdős–Rényi G(n,p)
// generation, bounded edge perturbation (the paper's reconciliation model:
// Alice and Bob each hold a ≤ d/2-edge perturbation of a common base graph),
// exact isomorphism testing for verification, and canonical forms for tiny
// graphs (used by the Theorem 4.1/4.3 polynomial protocols and the Figure 1
// witness search).
package graph

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"sosr/internal/prng"
)

// Graph is an undirected simple graph on vertices 0..N-1 with bitset
// adjacency rows.
type Graph struct {
	N   int
	adj [][]uint64 // N rows of ceil(N/64) words
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	words := (n + 63) / 64
	adj := make([][]uint64, n)
	backing := make([]uint64, n*words)
	for i := range adj {
		adj[i], backing = backing[:words:words], backing[words:]
	}
	return &Graph{N: n, adj: adj}
}

// FromEdges builds the graph on n vertices with the given edge list — the
// validating way in for a graph that comes from outside the program. Self-loops
// and duplicate edges are ignored; a negative n or an edge outside the vertex
// range is refused.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: %d vertices", n)
	}
	g := New(n)
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside %d vertices", e[0], e[1], n)
		}
		if e[0] != e[1] {
			g.AddEdge(e[0], e[1])
		}
	}
	return g, nil
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	out := New(g.N)
	for i := range g.adj {
		copy(out.adj[i], g.adj[i])
	}
	return out
}

// AddEdge inserts edge {u, v}; self-loops are rejected.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic("graph: self-loop")
	}
	g.adj[u][v/64] |= 1 << (v % 64)
	g.adj[v][u/64] |= 1 << (u % 64)
}

// RemoveEdge deletes edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.adj[u][v/64] &^= 1 << (v % 64)
	g.adj[v][u/64] &^= 1 << (u % 64)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	return g.adj[u][v/64]&(1<<(v%64)) != 0
}

// ToggleEdge flips edge {u, v} and reports whether it is now present.
func (g *Graph) ToggleEdge(u, v int) bool {
	if g.HasEdge(u, v) {
		g.RemoveEdge(u, v)
		return false
	}
	g.AddEdge(u, v)
	return true
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	d := 0
	for _, w := range g.adj[v] {
		d += bits.OnesCount64(w)
	}
	return d
}

// Degrees returns all vertex degrees.
func (g *Graph) Degrees() []int {
	out := make([]int, g.N)
	for v := range out {
		out[v] = g.Degree(v)
	}
	return out
}

// EdgeCount returns |E|.
func (g *Graph) EdgeCount() int {
	total := 0
	for v := 0; v < g.N; v++ {
		total += g.Degree(v)
	}
	return total / 2
}

// Edges returns all edges as (u, v) pairs with u < v.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.EdgeCount())
	for u := 0; u < g.N; u++ {
		g.EachNeighbor(u, func(v int) {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		})
	}
	return out
}

// EachNeighbor calls f for every neighbor of u in increasing order.
func (g *Graph) EachNeighbor(u int, f func(v int)) {
	for wi, w := range g.adj[u] {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*64 + b)
			w &= w - 1
		}
	}
}

// Equal reports whether two graphs are identical as labeled graphs.
func (g *Graph) Equal(o *Graph) bool {
	if g.N != o.N {
		return false
	}
	for i := range g.adj {
		for j := range g.adj[i] {
			if g.adj[i][j] != o.adj[i][j] {
				return false
			}
		}
	}
	return true
}

// Relabel returns the graph with vertex i renamed to perm[i].
func (g *Graph) Relabel(perm []int) *Graph {
	if len(perm) != g.N {
		panic("graph: bad permutation length")
	}
	out := New(g.N)
	for u := 0; u < g.N; u++ {
		g.EachNeighbor(u, func(v int) {
			if u < v {
				out.AddEdge(perm[u], perm[v])
			}
		})
	}
	return out
}

// Gnp samples an Erdős–Rényi G(n, p) graph.
func Gnp(n int, p float64, src *prng.Source) *Graph {
	g := New(n)
	if p <= 0 {
		return g
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v)
			}
		}
		return g
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Perturb returns a copy of g with exactly k distinct vertex pairs toggled
// (the paper's "at most d/2 edge changes"), plus the list of toggled pairs.
// It panics if k exceeds the number of vertex pairs.
func Perturb(g *Graph, k int, src *prng.Source) (*Graph, [][2]int) {
	if maxPairs := g.N * (g.N - 1) / 2; k > maxPairs {
		panic(fmt.Sprintf("graph: cannot toggle %d distinct pairs on %d vertices (max %d)", k, g.N, maxPairs))
	}
	out := g.Clone()
	seen := map[[2]int]bool{}
	var flips [][2]int
	for len(flips) < k {
		u, v := src.Intn(g.N), src.Intn(g.N)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		out.ToggleEdge(u, v)
		flips = append(flips, key)
	}
	return out, flips
}

// String returns a compact textual form (for diagnostics).
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N, g.EdgeCount())
}

// IsIsomorphic decides graph isomorphism exactly via iterated degree
// refinement plus backtracking. Intended for verification in tests and the
// experiment harness (random graphs refine to discrete partitions almost
// always, so this is fast in practice; worst case exponential, as it must
// be).
func IsIsomorphic(a, b *Graph) bool {
	if a.N != b.N || a.EdgeCount() != b.EdgeCount() {
		return false
	}
	n := a.N
	colA := refine(a, nil)
	colB := refine(b, nil)
	sortedA, sortedB := slices.Clone(colA), slices.Clone(colB)
	slices.Sort(sortedA)
	slices.Sort(sortedB)
	if !slices.Equal(sortedA, sortedB) {
		return false
	}
	// Backtracking on vertices in order of ascending color-class size:
	// sorting by color lays each class out as one run, which sizes it.
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	slices.SortFunc(order, func(u, v int) int { return cmp.Compare(colA[u], colA[v]) })
	size := make([]int, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && colA[order[j]] == colA[order[i]] {
			j++
		}
		for _, v := range order[i:j] {
			size[v] = j - i
		}
		i = j
	}
	slices.SortFunc(order, func(u, v int) int {
		if size[u] != size[v] {
			return size[u] - size[v]
		}
		return u - v
	})
	mapping := make([]int, n)
	used := make([]bool, n)
	for i := range mapping {
		mapping[i] = -1
	}
	var try func(idx int) bool
	try = func(idx int) bool {
		if idx == n {
			return true
		}
		u := order[idx]
		for v := 0; v < n; v++ {
			if used[v] || colB[v] != colA[u] {
				continue
			}
			ok := true
			for w := 0; w < n; w++ {
				if mapping[w] >= 0 && a.HasEdge(u, w) != b.HasEdge(v, mapping[w]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapping[u] = v
			used[v] = true
			if try(idx + 1) {
				return true
			}
			mapping[u] = -1
			used[v] = false
		}
		return false
	}
	return try(0)
}

// adjacency returns g's neighbor lists in compressed form: the neighbors of
// v, ascending, are nbr[off[v]:off[v+1]].
func (g *Graph) adjacency() (off, nbr []int32) {
	off = make([]int32, g.N+1)
	for v := 0; v < g.N; v++ {
		off[v+1] = off[v] + int32(g.Degree(v))
	}
	nbr = make([]int32, 0, off[g.N])
	for v := 0; v < g.N; v++ {
		g.EachNeighbor(v, func(w int) { nbr = append(nbr, int32(w)) })
	}
	return off, nbr
}

// refine runs 1-dimensional Weisfeiler–Leman color refinement to a fixed
// point and returns per-vertex colors.
func refine(g *Graph, initial []uint64) []uint64 {
	n := g.N
	off, nbr := g.adjacency()
	col := make([]uint64, n)
	if initial != nil {
		copy(col, initial)
	} else {
		for v := 0; v < n; v++ {
			col[v] = uint64(off[v+1] - off[v])
		}
	}
	next := make([]uint64, n)
	// One scratch serves both the per-vertex neighbor-color multiset and the
	// per-round distinct count.
	scratch := make([]uint64, n)
	distinct := countDistinct(col, scratch)
	for round := 0; round < n; round++ {
		for v := 0; v < n; v++ {
			ms := scratch[:0]
			for _, w := range nbr[off[v]:off[v+1]] {
				ms = append(ms, col[w])
			}
			slices.Sort(ms)
			h := col[v] ^ 0x9e3779b97f4a7c15
			for _, m := range ms {
				h = (h ^ prng.Mix64(m)) * 0x100000001b3
			}
			next[v] = prng.Mix64(h)
		}
		col, next = next, col
		before := distinct
		if distinct = countDistinct(col, scratch); distinct == before {
			break
		}
	}
	return col
}

// countDistinct counts the distinct values of xs, sorting a copy in scratch
// (len(scratch) ≥ len(xs)).
func countDistinct(xs, scratch []uint64) int {
	s := scratch[:copy(scratch, xs)]
	slices.Sort(s)
	return len(slices.Compact(s))
}
