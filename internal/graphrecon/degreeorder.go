// Package graphrecon implements the paper's graph reconciliation protocols:
// the unlimited-computation polynomial protocols of §4 (Theorems 4.1/4.3)
// for tiny graphs, and the two random-graph schemes of §5 built on
// sets-of-sets reconciliation — the degree-ordering signature scheme
// (§5.1, Theorem 5.2) and the degree-neighborhood signature scheme
// (§5.2, Theorem 5.6).
//
// In the §5 model, a base graph G ~ G(n, p) is perturbed by at most d/2 edge
// changes on each side; Bob ends up with a graph isomorphic to Alice's
// (one-way reconciliation). Both schemes reconcile vertex signatures via the
// sets-of-sets machinery, derive a conforming labeling, and reconcile the
// labeled edge sets with an IBLT in parallel (a single round overall).
package graphrecon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"sosr/internal/core"
	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Protocol errors.
var (
	// ErrNotSeparated indicates the graph violates the scheme's signature
	// robustness property (Definition 5.1 or 5.4), so the protocol's
	// preconditions do not hold.
	ErrNotSeparated = errors.New("graphrecon: graph signatures not sufficiently separated")
	// ErrNoConformingMatch indicates a differing signature could not be
	// matched within the conforming distance threshold.
	ErrNoConformingMatch = errors.New("graphrecon: no conforming signature match")
	// ErrVerify indicates the reconciled edge set failed verification.
	ErrVerify = errors.New("graphrecon: recovered graph failed verification")
)

// DegreeOrderParams configures the §5.1 scheme.
type DegreeOrderParams struct {
	// H is the number of top-degree anchor vertices (the paper's h).
	H int
	// D bounds the total number of edge changes between the two graphs.
	D int
}

// graphWork is the scratch of one Alice build or one Bob apply of either §5
// scheme: the degree order, the signature arena and its sorted parent, the
// labelling, the relabelled adjacency rows the labelled edge set is read off,
// the edge IBLT Alice builds and the set-reconciliation workspace Bob decodes it
// on, and (§5.2) Alice's signatures unpacked. The exported entry points each run
// on one pooled graphWork; what they return — payload bytes, the recovered
// graph — is allocated for the caller. release drops the one reference to
// caller data a workspace can hold, the §5.2 parent that points into the
// caller's NbrSide.
type graphWork struct {
	deg, order []int
	sigArena   []uint64
	sigs       [][]uint64 // §5.1: per-vertex signatures, in sigArena
	parent     [][]uint64 // the signatures in canonical order: §5.1's, or (§5.2) the caller's packed ones
	label      []int
	rows       []uint64      // relabelled adjacency, upper triangle, one bit row per label
	edges      []uint64      // the labelled edge set, canonical
	table      iblt.Table    // Alice's edge IBLT
	dec        setrecon.Work // Bob's decode of it
	merged     []uint64      // Alice's labelled edge set, rebuilt
	unpacked   []uint64      // §5.2: Alice's signatures as sorted multisets, end to end
	unpackedAt []int         // signature i is unpacked[unpackedAt[i]:unpackedAt[i+1]]
}

var graphWorkPool = sync.Pool{New: func() any { return new(graphWork) }}

func getGraphWork() *graphWork { return graphWorkPool.Get().(*graphWork) }

func putGraphWork(w *graphWork) {
	w.release()
	graphWorkPool.Put(w)
}

func (w *graphWork) release() {
	clear(w.parent[:cap(w.parent)])
	w.parent = w.parent[:0]
}

// degreeOrderSignatures computes the §5.1 signature scheme for g: top holds
// the h highest-degree vertices (descending, ties broken by index), rest the
// others in the same order, and sigs[i] is the signature of rest[i] — the
// ascending ranks in top of the anchors it is adjacent to. The signatures are
// capacity-limited sub-slices of one arena in the workspace, and the results
// alias it.
func (w *graphWork) degreeOrderSignatures(g *graph.Graph, h int) (top, rest []int, sigs [][]uint64) {
	order, deg := w.degreeOrder(g)
	top, rest = order[:h], order[h:]
	// Every signature entry is an edge into top, so top's degrees bound them.
	total := 0
	for _, t := range top {
		total += deg[t]
	}
	arena := slices.Grow(w.sigArena[:0], total)
	w.sigs = slices.Grow(w.sigs[:0], len(rest))[:len(rest)]
	for i, v := range rest {
		m := len(arena)
		for j, t := range top {
			if g.HasEdge(v, t) {
				arena = append(arena, uint64(j))
			}
		}
		w.sigs[i] = arena[m:len(arena):len(arena)]
	}
	w.sigArena = arena
	return top, rest, w.sigs
}

// degreeOrder returns vertices sorted by degree descending (index ascending
// on ties), and the degrees.
func (w *graphWork) degreeOrder(g *graph.Graph) (order, deg []int) {
	deg = slices.Grow(w.deg[:0], g.N)[:g.N]
	order = slices.Grow(w.order[:0], g.N)[:g.N]
	for v := range order {
		deg[v], order[v] = g.Degree(v), v
	}
	slices.SortFunc(order, func(u, v int) int {
		if deg[u] != deg[v] {
			return deg[v] - deg[u]
		}
		return u - v
	})
	w.deg, w.order = deg, order
	return order, deg
}

// IsSeparated checks Definition 5.1: after sorting by degree, the top h
// degrees (including the boundary to vertex h+1) are pairwise ≥ a apart, and
// all non-top signature pairs are ≥ b apart in Hamming distance. The
// boundary gap is checked too so the top-h membership is stable under
// perturbation.
func IsSeparated(g *graph.Graph, h, a, b int) bool {
	if h < 1 || h >= g.N {
		return false
	}
	var w graphWork
	order, deg := w.degreeOrder(g)
	for i := 0; i+1 <= h && i+1 < g.N; i++ {
		if deg[order[i]]-deg[order[i+1]] < a {
			return false
		}
	}
	_, _, sigs := w.degreeOrderSignatures(g, h)
	for i := range sigs {
		for j := i + 1; j < len(sigs); j++ {
			if setutil.SymmetricDiff(sigs[i], sigs[j]) < b {
				return false
			}
		}
	}
	return true
}

// MaxSeparatedH returns the largest h ≤ hMax for which g is (h, a, b)-
// separated, or 0 if none. Used by the experiment harness to pick a valid h
// for a sampled graph (Theorem 5.3 guarantees such h exist with high
// probability in the stated p regime).
func MaxSeparatedH(g *graph.Graph, a, b, hMax int) int {
	for h := hMax; h >= 1; h-- {
		if IsSeparated(g, h, a, b) {
			return h
		}
	}
	return 0
}

// DegreeOrderingRecon runs the Theorem 5.2 protocol. Preconditions: the
// underlying base graph is (h, d+1, 2d+1)-separated and at most p.D edge
// changes separate ga and gb. One round: Alice ships the cascaded
// signature tables and the labeled-edge IBLT together; Bob recovers Alice's
// signatures, derives the conforming labeling, and reconciles the labeled
// edges. Returns Bob's copy of Alice's graph under Alice's labeling.
func DegreeOrderingRecon(sess *transport.Session, coins hashing.Coins, ga, gb *graph.Graph, p DegreeOrderParams) (*graph.Graph, transport.Stats, error) {
	if ga.N != gb.N {
		return nil, transport.Stats{}, fmt.Errorf("graphrecon: vertex count mismatch")
	}

	// --- Alice: signatures, labeling, edge IBLT. Signature sets-of-sets
	// reconciliation (Theorem 3.7), then the edge IBLT in the same round
	// (consecutive Alice sends = one round). ---
	msgs, err := DegreeOrderAlice(coins, ga, p)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	sigMsg := sess.Send(transport.Alice, "cascade-iblts", msgs.Sig)
	edgeMsg := sess.Send(transport.Alice, "edge-iblt", msgs.Edges)

	// --- Bob: conforming labeling from Alice's recovered signatures. ---
	recovered, err := DegreeOrderApply(coins, gb, p, sigMsg, edgeMsg)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	return recovered, sess.Stats(), nil
}

// GraphMsgs holds Alice's two parallel one-round payloads: the cascaded
// signature tables (sent under "cascade-iblts") and the labeled-edge IBLT
// (sent under "edge-iblt").
type GraphMsgs struct {
	Sig   []byte
	Edges []byte
}

// DegreeOrderSigShape returns the sets-of-sets shape and difference bound the
// signature collections of two n-vertex graphs reconcile under: what sizes
// the cascade payload of Theorem 5.2, whatever the graphs hold.
func DegreeOrderSigShape(n int, p DegreeOrderParams) (core.Params, int) {
	return core.Params{S: n, H: p.H, U: uint64(p.H)}, max(p.D, 1)
}

// DegreeOrderAlice builds Alice's Theorem 5.2 transmission from her graph
// alone, for split-party deployments; DegreeOrderApply is Bob's half. The
// payloads are byte-identical to what the in-process protocol sends.
func DegreeOrderAlice(coins hashing.Coins, ga *graph.Graph, p DegreeOrderParams) (*GraphMsgs, error) {
	w := getGraphWork()
	defer putGraphWork(w)
	return w.degreeOrderAlice(coins, ga, p)
}

func (w *graphWork) degreeOrderAlice(coins hashing.Coins, ga *graph.Graph, p DegreeOrderParams) (*GraphMsgs, error) {
	n, h, d := ga.N, p.H, p.D
	if h < 1 || h >= n {
		return nil, fmt.Errorf("graphrecon: invalid h=%d", h)
	}
	topA, restA, sigsA := w.degreeOrderSignatures(ga, h)
	parentA, err := w.signatureParent(sigsA)
	if err != nil {
		return nil, err
	}
	edgePayload := w.edgePayload(coins, degreeEdgeLabels, ga, w.degreeOrderLabeling(topA, restA, sigsA, parentA), d)
	sigParams, sigD := DegreeOrderSigShape(n, p)
	sigMsg, err := core.AliceMsg(core.DigestCascade, coins.Sub("graphrecon/sig", 0), parentA, sigParams, sigD, 0)
	if err != nil {
		return nil, err
	}
	return &GraphMsgs{Sig: sigMsg, Edges: edgePayload}, nil
}

// DegreeOrderApply runs Bob's Theorem 5.2 half against Alice's received
// payloads, returning his copy of Alice's graph under Alice's labeling.
func DegreeOrderApply(coins hashing.Coins, gb *graph.Graph, p DegreeOrderParams, sigMsg, edgeMsg []byte) (*graph.Graph, error) {
	w := getGraphWork()
	defer putGraphWork(w)
	return w.degreeOrderApply(coins, gb, p, sigMsg, edgeMsg)
}

func (w *graphWork) degreeOrderApply(coins hashing.Coins, gb *graph.Graph, p DegreeOrderParams, sigMsg, edgeMsg []byte) (*graph.Graph, error) {
	n, h, d := gb.N, p.H, p.D
	if h < 1 || h >= n {
		return nil, fmt.Errorf("graphrecon: invalid h=%d", h)
	}
	topB, restB, sigsB := w.degreeOrderSignatures(gb, h)
	parentB, err := w.signatureParent(sigsB)
	if err != nil {
		return nil, err
	}
	sigParams, sigD := DegreeOrderSigShape(n, p)
	res, err := core.ApplyMsg(core.DigestCascade, coins.Sub("graphrecon/sig", 0), sigMsg, parentB, sigParams, sigD, 0)
	if err != nil {
		return nil, fmt.Errorf("graphrecon: signature reconciliation: %w", err)
	}
	labelB, err := w.bobDegreeOrderLabeling(topB, restB, sigsB, res.Recovered, d)
	if err != nil {
		return nil, err
	}
	return w.applyEdgeRecon(coins, degreeEdgeLabels, edgeMsg, gb, labelB)
}

// signatureParent sorts a graph's vertex signatures into a canonical parent
// set, rejecting duplicate signatures (which violate separation). sigs itself
// is left in vertex order.
func (w *graphWork) signatureParent(sigs [][]uint64) ([][]uint64, error) {
	parent := append(w.parent[:0], sigs...)
	w.parent = parent
	setutil.SortSets(parent)
	for i := 1; i < len(parent); i++ {
		if slices.Equal(parent[i-1], parent[i]) {
			return nil, fmt.Errorf("%w: duplicate vertex signature", ErrNotSeparated)
		}
	}
	return parent, nil
}

// degreeOrderLabeling labels Alice's graph: top vertices get 0..h-1 by
// degree rank; the rest get h + (lexicographic rank of their signature).
func (w *graphWork) degreeOrderLabeling(top, rest []int, sigs, sortedSigs [][]uint64) []int {
	n := len(top) + len(rest)
	label := slices.Grow(w.label[:0], n)[:n]
	w.label = label
	for j, v := range top {
		label[v] = j
	}
	for i, v := range rest {
		label[v] = len(top) + sigRank(sortedSigs, sigs[i])
	}
	return label
}

// sigRank returns the index of signature s in the lexicographically sorted
// list (which must contain it).
func sigRank(sorted [][]uint64, s []uint64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if setutil.LessSets(sorted[mid], s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bobDegreeOrderLabeling computes Bob's conforming labeling: his top-h by
// his own degree rank; every other vertex matched to the unique signature of
// Alice's within symmetric difference ≤ d (exact matches first), labeled by
// that signature's lexicographic rank.
func (w *graphWork) bobDegreeOrderLabeling(topB, restB []int, sigsB, aliceSigs [][]uint64, d int) ([]int, error) {
	label := slices.Grow(w.label[:0], len(topB)+len(restB))[:len(topB)+len(restB)]
	w.label = label
	for j, v := range topB {
		label[v] = j
	}
	for i, v := range restB {
		sB := sigsB[i]
		// Exact match via binary search, else conforming scan.
		r := sigRank(aliceSigs, sB)
		if r < len(aliceSigs) && setutil.Equal(aliceSigs[r], sB) {
			label[v] = len(topB) + r
			continue
		}
		found := -1
		for idx, sA := range aliceSigs {
			if setutil.DiffWithin(sA, sB, d) {
				if found >= 0 {
					return nil, fmt.Errorf("%w: ambiguous match for vertex %d", ErrNoConformingMatch, v)
				}
				found = idx
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("%w: vertex %d", ErrNoConformingMatch, v)
		}
		label[v] = len(topB) + found
	}
	return label, nil
}

// labeledEdgeSet returns the canonical set of edge keys of g under label, in
// the workspace. Each edge sets one bit of a relabelled adjacency matrix —
// row the smaller label, column the larger — and the keys are read off the
// rows in order, which is key order: nothing is sorted, and a non-injective
// labelling that sends two edges to one key sets one bit twice.
func (w *graphWork) labeledEdgeSet(g *graph.Graph, label []int) []uint64 {
	m := 0 // labels in use: the rows, and columns, of the relabelled matrix
	for _, l := range label {
		m = max(m, l+1)
	}
	words := (m + 63) / 64
	rows := slices.Grow(w.rows[:0], m*words)[:m*words]
	clear(rows)
	w.rows = rows
	for u := 0; u < g.N; u++ {
		g.EachNeighbor(u, func(v int) {
			if u < v {
				a, b := label[u], label[v]
				if a > b {
					a, b = b, a
				}
				rows[a*words+b/64] |= 1 << (b % 64)
			}
		})
	}
	out := slices.Grow(w.edges[:0], g.EdgeCount())
	for a := 0; a < m; a++ {
		for wi, word := range rows[a*words : (a+1)*words] {
			for ; word != 0; word &= word - 1 {
				out = append(out, edgeKey(a, wi*64+bits.TrailingZeros64(word)))
			}
		}
	}
	w.edges = out
	return out
}

// edgeKey packs an unordered label pair into a word (labels < 2^30 so the
// key stays within the 2^60 universe).
func edgeKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<30 | uint64(b)
}

// edgeFromKey inverts edgeKey.
func edgeFromKey(k uint64) (int, int) {
	return int(k >> 30), int(k & ((1 << 30) - 1))
}

// edgeLabels names the coin roles of a scheme's edge exchange.
type edgeLabels struct{ table, verify string }

var (
	degreeEdgeLabels = edgeLabels{"graphrecon/edges", "graphrecon/edgeverify"}
	nbrEdgeLabels    = edgeLabels{"graphrecon/nbr-edges", "graphrecon/nbr-edgeverify"}
)

// edgePayload builds Alice's half of the edge exchange both §5 protocols end
// with: an O(d)-cell IBLT of her labelled edges and their verification hash.
func (w *graphWork) edgePayload(coins hashing.Coins, lbl edgeLabels, ga *graph.Graph, label []int, d int) []byte {
	edges := w.labeledEdgeSet(ga, label)
	w.table.Reshape(iblt.CellsFor(d), iblt.WordWidth, 0, coins.Seed(lbl.table, 0))
	for _, e := range edges {
		w.table.InsertUint64(e)
	}
	payload := w.table.AppendMarshal(make([]byte, 0, w.table.SerializedSize()+8))
	return binary.LittleEndian.AppendUint64(payload, setutil.Hash(coins.Seed(lbl.verify, 0), edges))
}

// applyEdgeRecon finishes both §5 protocols, which close with set
// reconciliation of the labelled edges (Corollary 2.2): Bob decodes Alice's
// edge IBLT against his labelled edges, verifies the result, and materializes
// Alice's labelled graph.
func (w *graphWork) applyEdgeRecon(coins hashing.Coins, lbl edgeLabels, edgeMsg []byte, gb *graph.Graph, labelB []int) (*graph.Graph, error) {
	if len(edgeMsg) < 8 {
		return nil, fmt.Errorf("graphrecon: short edge message")
	}
	wantHash := binary.LittleEndian.Uint64(edgeMsg[len(edgeMsg)-8:])
	edgeSetB := w.labeledEdgeSet(gb, labelB)
	add, rem, err := w.dec.DecodeIBLT(edgeMsg[:len(edgeMsg)-8], coins.Seed(lbl.table, 0), edgeSetB)
	if err != nil {
		return nil, fmt.Errorf("graphrecon: edge IBLT: %w", err)
	}
	edgesA := setutil.AppendApplyDiff(slices.Grow(w.merged[:0], len(edgeSetB)+len(add)), edgeSetB, add, rem)
	w.merged = edgesA
	if setutil.Hash(coins.Seed(lbl.verify, 0), edgesA) != wantHash {
		return nil, ErrVerify
	}
	n := gb.N
	out := graph.New(n)
	for _, k := range edgesA {
		u, v := edgeFromKey(k)
		if u == v || u >= n || v >= n {
			return nil, fmt.Errorf("graphrecon: corrupt edge key %d", k)
		}
		out.AddEdge(u, v)
	}
	return out, nil
}
