// Package forest implements the paper's §6: rooted forests, AHU
// isomorphism-class labels, forest-structure-preserving edge perturbation,
// and forest reconciliation via multiset-of-multisets reconciliation of
// vertex/edge signatures (Theorem 6.1).
package forest

import (
	"errors"
	"fmt"
	"slices"

	"sosr/internal/hashing"
	"sosr/internal/prng"
)

// Forest is a rooted forest: Parent[v] is v's parent, or -1 for roots. All
// edges implicitly point away from the roots.
type Forest struct {
	Parent []int32
}

// New returns a forest of n isolated roots.
func New(n int) *Forest {
	p := make([]int32, n)
	for i := range p {
		p[i] = -1
	}
	return &Forest{Parent: p}
}

// N returns the vertex count.
func (f *Forest) N() int { return len(f.Parent) }

// Clone returns a deep copy.
func (f *Forest) Clone() *Forest {
	return &Forest{Parent: append([]int32(nil), f.Parent...)}
}

// Roots returns all root vertices in ascending order.
func (f *Forest) Roots() []int {
	var out []int
	for v, p := range f.Parent {
		if p < 0 {
			out = append(out, v)
		}
	}
	return out
}

// Children returns the children adjacency lists, each ascending. The lists
// are capacity-limited sub-slices of one array.
func (f *Forest) Children() [][]int32 {
	n := len(f.Parent)
	out := make([][]int32, n)
	count := make([]int32, n)
	for _, p := range f.Parent {
		if p >= 0 {
			count[p]++
		}
	}
	kids := make([]int32, n)
	at := int32(0)
	for v, c := range count {
		out[v] = kids[at : at : at+c]
		at += c
	}
	for v, p := range f.Parent {
		if p >= 0 {
			out[p] = append(out[p], int32(v))
		}
	}
	return out
}

// bottomUp orders the vertices so that every child precedes its parent: a
// breadth-first walk from the roots, reversed.
func bottomUp(f *Forest, children [][]int32) []int32 {
	order := make([]int32, 0, f.N())
	for v, p := range f.Parent {
		if p < 0 {
			order = append(order, int32(v))
		}
	}
	for i := 0; i < len(order); i++ {
		order = append(order, children[order[i]]...)
	}
	slices.Reverse(order)
	return order
}

// Validate checks that parent pointers are in range and acyclic.
func (f *Forest) Validate() error {
	n := len(f.Parent)
	state := make([]int8, n) // 0 unvisited, 1 on path, 2 done
	var path []int
	for v := 0; v < n; v++ {
		u := v
		path = path[:0]
		for state[u] == 0 {
			state[u] = 1
			path = append(path, u)
			p := f.Parent[u]
			if p < 0 {
				break
			}
			if int(p) >= n {
				return fmt.Errorf("forest: parent %d out of range", p)
			}
			u = int(p)
			if state[u] == 1 {
				return errors.New("forest: cycle detected")
			}
		}
		for _, w := range path {
			state[w] = 2
		}
	}
	return nil
}

// Depth returns σ: the maximum number of vertices on any root-to-leaf path
// (a single vertex has depth 1); 0 for the empty forest.
func (f *Forest) Depth() int {
	n := len(f.Parent)
	depth := make([]int, n)
	var get func(v int) int
	get = func(v int) int {
		if depth[v] != 0 {
			return depth[v]
		}
		if f.Parent[v] < 0 {
			depth[v] = 1
		} else {
			depth[v] = get(int(f.Parent[v])) + 1
		}
		return depth[v]
	}
	max := 0
	for v := 0; v < n; v++ {
		if d := get(v); d > max {
			max = d
		}
	}
	return max
}

// EdgeCount returns the number of (directed) edges.
func (f *Forest) EdgeCount() int {
	c := 0
	for _, p := range f.Parent {
		if p >= 0 {
			c++
		}
	}
	return c
}

// RootOf returns the root of v's tree.
func (f *Forest) RootOf(v int) int {
	for f.Parent[v] >= 0 {
		v = int(f.Parent[v])
	}
	return v
}

// Random samples a rooted forest on n vertices: vertex i > 0 becomes a root
// with probability rootProb, otherwise attaches to a uniform earlier vertex
// (guaranteeing acyclicity); vertex labels are then shuffled so structure
// does not correlate with index order.
func Random(n int, rootProb float64, src *prng.Source) *Forest {
	f := New(n)
	for i := 1; i < n; i++ {
		if src.Float64() >= rootProb {
			f.Parent[i] = int32(src.Intn(i))
		}
	}
	perm := src.Perm(n)
	out := New(n)
	for v, p := range f.Parent {
		if p >= 0 {
			out.Parent[perm[v]] = int32(perm[p])
		}
	}
	return out
}

// Perturb applies exactly k forest-preserving edge updates to a copy of f:
// deletions (a child becomes a new root) and insertions (a root becomes the
// child of a vertex in a different tree), per the §6 update model. Returns
// the perturbed forest.
func Perturb(f *Forest, k int, src *prng.Source) *Forest {
	out := f.Clone()
	n := out.N()
	for done := 0; done < k; {
		if src.Bool() {
			// Delete a random edge.
			var nonRoots []int
			for v, p := range out.Parent {
				if p >= 0 {
					nonRoots = append(nonRoots, v)
				}
			}
			if len(nonRoots) == 0 {
				continue
			}
			v := nonRoots[src.Intn(len(nonRoots))]
			out.Parent[v] = -1
			done++
		} else {
			// Insert: attach a root under a vertex of a different tree.
			roots := out.Roots()
			if len(roots) < 2 && (len(roots) == 0 || n == 1) {
				continue
			}
			r := roots[src.Intn(len(roots))]
			v := src.Intn(n)
			if v == r || out.RootOf(v) == r {
				continue
			}
			out.Parent[r] = int32(v)
			done++
		}
	}
	return out
}

// CanonLabels computes interned AHU labels: two vertices get equal labels
// iff their rooted subtrees are isomorphic. Labels are shared across the
// provided forests (joint interning), enabling exact isomorphism tests.
func CanonLabels(forests ...*Forest) [][]int {
	intern := map[string]int{}
	out := make([][]int, len(forests))
	var ids []int
	var key []byte
	for fi, f := range forests {
		labels := make([]int, f.N())
		children := f.Children()
		for _, v := range bottomUp(f, children) {
			ids = ids[:0]
			for _, c := range children[v] {
				ids = append(ids, labels[c])
			}
			slices.Sort(ids)
			key = key[:0]
			for _, id := range ids {
				key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			// The lookup converts key without copying it; only a label seen
			// for the first time pays for its string.
			id, ok := intern[string(key)]
			if !ok {
				id = len(intern) + 1
				intern[string(key)] = id
			}
			labels[v] = id
		}
		out[fi] = labels
	}
	return out
}

// IsIsomorphic decides rooted-forest isomorphism exactly: the multisets of
// root canonical labels must coincide.
func IsIsomorphic(a, b *Forest) bool {
	if a.N() != b.N() {
		return false
	}
	labels := CanonLabels(a, b)
	rootsA, rootsB := map[int]int{}, map[int]int{}
	for _, r := range a.Roots() {
		rootsA[labels[0][r]]++
	}
	for _, r := range b.Roots() {
		rootsB[labels[1][r]]++
	}
	if len(rootsA) != len(rootsB) {
		return false
	}
	for k, v := range rootsA {
		if rootsB[k] != v {
			return false
		}
	}
	return true
}

// EditDistanceUpperBound returns a quick upper bound on the number of edge
// edits between two forests over the same vertex set (labeled comparison) —
// used by workloads to sanity-check perturbations.
func EditDistanceUpperBound(a, b *Forest) int {
	if a.N() != b.N() {
		panic("forest: size mismatch")
	}
	d := 0
	for v := range a.Parent {
		if a.Parent[v] != b.Parent[v] {
			d++
			if a.Parent[v] >= 0 && b.Parent[v] >= 0 {
				d++ // one delete plus one insert
			}
		}
	}
	return d
}

// HashSignatures computes 64-bit AHU hash signatures for every vertex under
// seed: a leaf hashes the empty list; an internal vertex hashes the sorted
// list of its children's signatures (the paper's "Θ(log n)-bit pairwise
// independent hash of the isomorphism class label of the tree it roots").
func HashSignatures(f *Forest, seed uint64) []uint64 {
	return hashSignatures(f, f.Children(), seed)
}

func hashSignatures(f *Forest, children [][]int32, seed uint64) []uint64 {
	sigs := make([]uint64, f.N())
	var cs []uint64
	for _, v := range bottomUp(f, children) {
		cs = cs[:0]
		for _, c := range children[v] {
			cs = append(cs, sigs[c])
		}
		slices.Sort(cs)
		sigs[v] = hashing.HashUint64s(seed, cs)
	}
	return sigs
}
