package sosr

import (
	"errors"
	"fmt"

	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/transport"
)

// Graph is an undirected simple graph on vertices 0..N-1, given by its edge
// list (u < v not required; duplicates ignored).
type Graph struct {
	N     int
	Edges [][2]int
}

// toInternal serves the helpers that have no error to return: a malformed
// graph panics there. The protocols validate (graph.FromEdges).
func (g Graph) toInternal() *graph.Graph {
	out, err := graph.FromEdges(g.N, g.Edges)
	if err != nil {
		panic(err)
	}
	return out
}

func fromInternal(g *graph.Graph) Graph {
	return Graph{N: g.N, Edges: g.Edges()}
}

// EdgeCount returns the number of distinct edges.
func (g Graph) EdgeCount() int { return g.toInternal().EdgeCount() }

// GraphScheme selects a graph reconciliation algorithm.
type GraphScheme int

// Available schemes.
const (
	// SchemeDegreeOrdering is §5.1 (Theorem 5.2): top-h degree anchors and
	// anchor-adjacency bit signatures. Requires the base graph to be
	// (h, d+1, 2d+1)-separated.
	SchemeDegreeOrdering GraphScheme = iota
	// SchemeDegreeNeighborhood is §5.2 (Theorem 5.6): neighbor-degree
	// multiset signatures. Works for much sparser graphs; costs a factor
	// ~pn more communication.
	SchemeDegreeNeighborhood
	// SchemePolynomial is §4 (Theorem 4.3): unlimited-computation canonical
	// polynomial protocol, one 24-byte message. Tiny graphs only (n ≤ 6),
	// exponential time.
	SchemePolynomial
)

// GraphConfig configures graph reconciliation.
type GraphConfig struct {
	// Seed seeds the shared public coins.
	Seed uint64
	// Scheme selects the algorithm.
	Scheme GraphScheme
	// MaxEdits is d: the bound on edge changes between the two graphs
	// (paper model: each side is ≤ d/2 edits from a common base graph).
	MaxEdits int
	// TopDegrees is h for SchemeDegreeOrdering (use PlantedSeparatedGraph's
	// returned h, or MaxSeparatedTop on the base graph).
	TopDegrees int
	// DegreeThreshold is m (≈ p·n) for SchemeDegreeNeighborhood.
	DegreeThreshold int
}

// GraphResult reports a one-way graph reconciliation: Recovered is Bob's
// graph, isomorphic to Alice's.
type GraphResult struct {
	Recovered Graph
	Stats     Stats
}

// ReconcileGraphs runs one-way unlabeled graph reconciliation: Bob (second
// argument) ends with a graph isomorphic to Alice's.
func ReconcileGraphs(alice, bob Graph, cfg GraphConfig) (*GraphResult, error) {
	ga, err := graph.FromEdges(alice.N, alice.Edges)
	if err != nil {
		return nil, err
	}
	gb, err := graph.FromEdges(bob.N, bob.Edges)
	if err != nil {
		return nil, err
	}
	coins := hashing.NewCoins(cfg.Seed)
	sess := transport.New()
	d := cfg.MaxEdits
	if d < 1 {
		d = 1
	}
	var rec *graph.Graph
	var st transport.Stats
	switch cfg.Scheme {
	case SchemeDegreeOrdering:
		if cfg.TopDegrees < 1 {
			return nil, fmt.Errorf("sosr: SchemeDegreeOrdering requires TopDegrees (h)")
		}
		rec, st, err = graphrecon.DegreeOrderingRecon(sess, coins, ga, gb,
			graphrecon.DegreeOrderParams{H: cfg.TopDegrees, D: d})
	case SchemeDegreeNeighborhood:
		m := cfg.DegreeThreshold
		if m < 1 {
			return nil, fmt.Errorf("sosr: SchemeDegreeNeighborhood requires DegreeThreshold (m)")
		}
		rec, st, err = graphrecon.NeighborhoodRecon(sess, coins, ga, gb,
			graphrecon.NeighborhoodParams{M: m, D: d})
	case SchemePolynomial:
		rec, st, err = graphrecon.PolyRecon(sess, coins, ga, gb, d)
	default:
		return nil, fmt.Errorf("sosr: unknown graph scheme %d", cfg.Scheme)
	}
	if err != nil {
		return nil, err
	}
	return &GraphResult{Recovered: fromInternal(rec), Stats: st}, nil
}

// GraphsIsomorphic runs the Theorem 4.1 communication protocol on tiny
// graphs (n ≤ 8): SchemePolynomial's one message at d = 0, so Bob's only
// candidate is his own graph. 24 bytes, one-sided error below 2^-35.
func GraphsIsomorphic(alice, bob Graph, seed uint64) (bool, Stats, error) {
	ga, err := graph.FromEdges(alice.N, alice.Edges)
	if err != nil {
		return false, Stats{}, err
	}
	gb, err := graph.FromEdges(bob.N, bob.Edges)
	if err != nil {
		return false, Stats{}, err
	}
	if ga.N != gb.N {
		return false, Stats{}, nil
	}
	sess := transport.New()
	_, _, err = graphrecon.PolyRecon(sess, hashing.NewCoins(seed), ga, gb, 0)
	if errors.Is(err, graphrecon.ErrNoCandidate) {
		return false, sess.Stats(), nil
	}
	return err == nil, sess.Stats(), err
}

// GraphsExactlyIsomorphic decides isomorphism locally and exactly
// (refinement + backtracking) — verification, not a protocol.
func GraphsExactlyIsomorphic(a, b Graph) bool {
	return graph.IsIsomorphic(a.toInternal(), b.toInternal())
}

// RandomGraph samples G(n, p).
func RandomGraph(n int, p float64, seed uint64) Graph {
	return fromInternal(graph.Gnp(n, p, prng.New(seed)))
}

// PerturbGraph toggles exactly k distinct vertex pairs of g.
func PerturbGraph(g Graph, k int, seed uint64) Graph {
	out, _ := graph.Perturb(g.toInternal(), k, prng.New(seed))
	return fromInternal(out)
}

// PlantedSeparatedGraph generates a graph that is (h, d+1, 2d+1)-separated
// by construction (see DESIGN.md: Theorem 5.3's separation only occurs at
// asymptotic n, so laptop-scale degree-ordering runs use planted
// workloads). Returns the graph and its h.
func PlantedSeparatedGraph(n, d int, p float64, seed uint64) (Graph, int, error) {
	g, h, err := graphrecon.PlantedSeparated(n, d, p, prng.New(seed))
	if err != nil {
		return Graph{}, 0, err
	}
	return fromInternal(g), h, nil
}

// MaxSeparatedTop returns the largest h ≤ hMax for which g is
// (h, a, b)-separated (Definition 5.1), or 0.
func MaxSeparatedTop(g Graph, a, b, hMax int) int {
	return graphrecon.MaxSeparatedH(g.toInternal(), a, b, hMax)
}

// NeighborhoodDisjointness returns the minimum pairwise degree-neighborhood
// multiset distance of g at threshold m (Definition 5.4); the neighborhood
// scheme supports d up to (value-1)/8.
func NeighborhoodDisjointness(g Graph, m int) int {
	return graphrecon.MinNeighborhoodDisjointness(g.toInternal(), m)
}

// Figure1Example reproduces the paper's Figure 1 by exhaustive search over
// n-vertex graphs (n=5 recommended): two graphs where merging by adding one
// edge to each is ambiguous — two different choices both yield isomorphic
// pairs, but the two merge results are not isomorphic to each other.
type Figure1Example struct {
	G1, G2         Graph
	AddG1X, AddG2X [2]int // first merge: G1+AddG1X ≅ G2+AddG2X =: X
	AddG1Y, AddG2Y [2]int // second merge: ≅ Y, with X ≇ Y
	MergeX, MergeY Graph
}

// FindFigure1Example searches for a Figure 1 witness on n vertices.
func FindFigure1Example(n int) (*Figure1Example, error) {
	w := graph.FindFigure1Witness(n)
	if w == nil {
		return nil, fmt.Errorf("sosr: no Figure 1 witness on %d vertices", n)
	}
	return &Figure1Example{
		G1: fromInternal(w.G1), G2: fromInternal(w.G2),
		AddG1X: w.E1, AddG2X: w.F1,
		AddG1Y: w.E2, AddG2Y: w.F2,
		MergeX: fromInternal(w.MergeX), MergeY: fromInternal(w.MergeY),
	}, nil
}
