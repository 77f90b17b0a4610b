// Package forest implements the paper's §6: rooted forests, AHU
// isomorphism-class labels, forest-structure-preserving edge perturbation,
// and forest reconciliation via multiset-of-multisets reconciliation of
// vertex/edge signatures (Theorem 6.1).
package forest

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"sosr/internal/core"
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
func (f *Forest) Children() [][]int32 { return new(forestWork).childLists(f) }

// forestWork is the scratch of one forest encode, apply, rebuild or
// isomorphism test: child lists, the bottom-up order, signatures, the M_v
// collection and its encoded parent, the interning table of CanonLabels, and
// Rebuild's group tables. The entry points each run on one pooled forestWork;
// what they return — payload bytes, the rebuilt forest, label slices — is
// allocated for the caller, and a released workspace refers to no argument.
type forestWork struct {
	count, kidArena []int32
	children        [][]int32
	order           []int32
	sigs, cs        []uint64
	mvArena         []uint64
	mv              [][]uint64
	enc, dec        core.MultisetParentWork

	// CanonLabels: shape i (a sorted child-label list) is
	// shapes[shapeAt[i]:shapeAt[i+1]] and has label i+1.
	intern      map[uint64]int32
	shapes, ids []int32
	shapeAt     []int32
	rootsA      []int
	rootsB      []int

	// Rebuild.
	bySig      map[uint64]int32
	kids       [][]int32
	kidIdx     []int32
	childOccur []int
	out        *Forest
	next       int
}

var forestWorkPool = sync.Pool{New: func() any {
	return &forestWork{intern: make(map[uint64]int32), bySig: make(map[uint64]int32)}
}}

func getForestWork() *forestWork { return forestWorkPool.Get().(*forestWork) }

func putForestWork(w *forestWork) {
	w.release()
	forestWorkPool.Put(w)
}

func (w *forestWork) release() {
	clear(w.intern)
	clear(w.bySig)
	w.shapes, w.shapeAt, w.out = w.shapes[:0], w.shapeAt[:0], nil
}

// childLists is Children into the workspace.
func (w *forestWork) childLists(f *Forest) [][]int32 {
	n := len(f.Parent)
	out := slices.Grow(w.children[:0], n)[:n]
	count := slices.Grow(w.count[:0], n)[:n]
	clear(count)
	for _, p := range f.Parent {
		if p >= 0 {
			count[p]++
		}
	}
	kids := slices.Grow(w.kidArena[:0], n)[:n]
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
	w.children, w.count, w.kidArena = out, count, kids
	return out
}

// bottomUp orders the vertices so that every child precedes its parent: a
// breadth-first walk from the roots, reversed.
func (w *forestWork) bottomUp(f *Forest, children [][]int32) []int32 {
	order := slices.Grow(w.order[:0], f.N())
	for v, p := range f.Parent {
		if p < 0 {
			order = append(order, int32(v))
		}
	}
	for i := 0; i < len(order); i++ {
		order = append(order, children[order[i]]...)
	}
	slices.Reverse(order)
	w.order = order
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
	w := getForestWork()
	defer putForestWork(w)
	out := make([][]int, len(forests))
	for fi, f := range forests {
		out[fi] = make([]int, f.N())
		w.canonLabels(f, out[fi])
	}
	return out
}

// canonLabels labels f's vertices into labels, interning jointly with every
// forest labelled on this workspace since it was taken. A shape — a vertex's
// sorted child labels — is looked up by a hash of the list and confirmed
// against the list itself, kept in one flat arena: no string per shape, and a
// hash collision only moves the colliding shape to another key.
func (w *forestWork) canonLabels(f *Forest, labels []int) {
	if len(w.shapeAt) == 0 {
		w.shapeAt = append(w.shapeAt, 0)
	}
	children := w.childLists(f)
	for _, v := range w.bottomUp(f, children) {
		ids := w.ids[:0]
		for _, c := range children[v] {
			ids = append(ids, int32(labels[c]))
		}
		slices.Sort(ids)
		w.ids = ids
		key := uint64(len(ids))
		for _, id := range ids {
			key = prng.Mix64(key ^ uint64(id))
		}
		for ; ; key = prng.Mix64(key + 1) {
			id, seen := w.intern[key]
			if !seen {
				w.shapes = append(w.shapes, ids...)
				w.shapeAt = append(w.shapeAt, int32(len(w.shapes)))
				id = int32(len(w.shapeAt) - 1)
				w.intern[key] = id
			} else if !slices.Equal(w.shapes[w.shapeAt[id-1]:w.shapeAt[id]], ids) {
				continue
			}
			labels[v] = int(id)
			break
		}
	}
}

// IsIsomorphic decides rooted-forest isomorphism exactly: the multisets of
// root canonical labels must coincide.
func IsIsomorphic(a, b *Forest) bool {
	if a.N() != b.N() {
		return false
	}
	w := getForestWork()
	defer putForestWork(w)
	rootLabels := func(f *Forest, labels []int) []int {
		labels = slices.Grow(labels[:0], f.N())[:f.N()]
		w.canonLabels(f, labels)
		roots := labels[:0] // a vertex's label is read before any root overwrites it
		for v, p := range f.Parent {
			if p < 0 {
				roots = append(roots, labels[v])
			}
		}
		slices.Sort(roots)
		return roots
	}
	w.rootsA = rootLabels(a, w.rootsA)
	w.rootsB = rootLabels(b, w.rootsB)
	return slices.Equal(w.rootsA, w.rootsB)
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
	var w forestWork
	return w.hashSignatures(f, w.childLists(f), seed)
}

func (w *forestWork) hashSignatures(f *Forest, children [][]int32, seed uint64) []uint64 {
	sigs := slices.Grow(w.sigs[:0], f.N())[:f.N()]
	cs := w.cs
	for _, v := range w.bottomUp(f, children) {
		cs = cs[:0]
		for _, c := range children[v] {
			cs = append(cs, sigs[c])
		}
		slices.Sort(cs)
		sigs[v] = hashing.HashUint64s(seed, cs)
	}
	w.sigs, w.cs = sigs, cs
	return sigs
}
