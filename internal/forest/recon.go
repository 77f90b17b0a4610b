package forest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Forest reconciliation (Theorem 6.1). Each vertex contributes one child
// multiset M_v = { mark(sig(v)) } ∪ { sig(c) : c a child of v }, where
// mark() flags the parent entry; the collection {M_v} is a multiset of
// multisets (identical subtrees contribute identical M_v), reconciled with
// the §3 machinery. A single edge update changes the signatures of at most
// σ vertices (its ancestors), so O(dσ) changes occur across the collection.
// Bob rebuilds Alice's forest from the recovered collection: root
// signatures are those whose vertex count exceeds their child-occurrence
// count, and each signature's children multiset is determined by its unique
// M_v group.

// Protocol errors.
var (
	// ErrRebuild indicates the recovered signature collection was not a
	// consistent forest (hash collision or transcript corruption).
	ErrRebuild = errors.New("forest: signature collection is not a consistent forest")
	// ErrBudget indicates reconciliation failed within the given budget.
	ErrBudget = errors.New("forest: reconciliation budget too small")
)

// ReconParams configures forest reconciliation.
type ReconParams struct {
	// Sigma is σ, the maximum tree depth over both forests.
	Sigma int
	// D bounds the number of forest edge edits.
	D int
	// Budget overrides the element-change budget passed to the sets-of-sets
	// protocol; 0 derives a bound from D and Sigma.
	Budget int
}

// sigMask truncates signatures to 47 bits so the parent-mark bit and the
// multiset count field fit in a packed word.
const sigMask = (1 << 47) - 1

// markParent flags a signature as the parent entry of its M_v.
func markParent(sig uint64) uint64 { return 1<<47 | (sig & sigMask) }

// childEntry is a child's signature entry.
func childEntry(sig uint64) uint64 { return sig & sigMask }

// vertexMultisets packs every M_v into one arena: a vertex contributes its
// own marked entry, and one entry to its parent's M_v if it has one.
func (w *forestWork) vertexMultisets(children [][]int32, sigs []uint64) [][]uint64 {
	arena := slices.Grow(w.mvArena[:0], 2*len(children))
	out := slices.Grow(w.mv[:0], len(children))[:len(children)]
	for v, kids := range children {
		m := len(arena)
		arena = append(arena, markParent(sigs[v]))
		for _, c := range kids {
			arena = append(arena, childEntry(sigs[c]))
		}
		out[v] = arena[m:len(arena):len(arena)]
	}
	w.mvArena, w.mv = arena, out
	return out
}

// Recon runs the Theorem 6.1 protocol: one round (plus the shared
// sets-of-sets transmission), O(dσ log dσ log n) bits. Bob ends with a
// forest isomorphic to Alice's.
func Recon(sess *transport.Session, coins hashing.Coins, fa, fb *Forest, p ReconParams) (*Forest, transport.Stats, error) {
	p, params := Plan(Measure(fa), Measure(fb), p)

	// --- Alice ---
	sigMsgA, meta, err := AliceMsg(coins, fa, p, params)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	sigMsg := sess.Send(transport.Alice, "cascade-iblts", sigMsgA)
	metaMsg := sess.Send(transport.Alice, "forest-meta", meta)

	// --- Bob: reconcile the signature collection and rebuild. ---
	rebuilt, err := Apply(coins, fb, p, params, sigMsg, metaMsg)
	if err != nil {
		return nil, transport.Stats{}, err
	}
	return rebuilt, sess.Stats(), nil
}

// SideInfo is one party's contribution to the shared instance shape; both
// parties combine their infos (via Plan) before any bytes flow, in-process or
// through a handshake. All fields are structural — independent of the
// signature seed — so repeated attempts with fresh coins reuse them.
type SideInfo struct {
	// N is the vertex count.
	N int
	// Depth is the maximum vertices on a root-to-leaf path.
	Depth int
	// MaxChild is the size of the party's largest encoded M_v child set: one
	// marked parent entry, one entry per child, one multiplicity tag. It is a
	// count of what the party holds, not an allowance: the larger of the two
	// parties' values is the h of the shape they reconcile under (see Plan).
	MaxChild int
}

// Measure computes f's SideInfo.
func Measure(f *Forest) SideInfo {
	kids := make([]int, f.N())
	for _, p := range f.Parent {
		if p >= 0 {
			kids[p]++
		}
	}
	maxKids := 0
	if len(kids) > 0 {
		maxKids = slices.Max(kids)
	}
	return SideInfo{N: f.N(), Depth: f.Depth(), MaxChild: maxKids + 2}
}

// Plan resolves the shared reconciliation parameters from both parties'
// infos: defaulted ReconParams plus the sets-of-sets shape the signature
// collections reconcile under.
//
// The shape rule: S is the two vertex counts together (every M_v of either
// party may differ) and H is the larger MaxChild, exactly — the largest child
// set either party holds, which is all Params.Fits asks of a shape and all the
// cascade sizes from it: a recovered child set is one of Alice's, so it is no
// larger than her MaxChild, and Bob's candidates are his own. The difference
// budget is no part of H. It bounds how many elements differ, which is d of
// Theorem 3.7, not how large a child set can be, which is h; adding it to H
// (as this function did up to protocol version 3, with twice the budget) makes
// min(d, h) = d always, and the cascade then sends ⌈log₂ budget⌉ levels where
// the theorem sends ⌈log₂ h⌉, the last of them keyed by whole child sets — some
// 2.3 times the bytes at n = 600, σ = 16, d = 3, for no failure probability
// anyone can name (TestFailureGuard holds both halves).
func Plan(a, b SideInfo, p ReconParams) (ReconParams, core.Params) {
	if p.D < 1 {
		p.D = 1
	}
	if p.Sigma < 1 {
		s := a.Depth
		if b.Depth > s {
			s = b.Depth
		}
		p.Sigma = s + 1
	}
	if p.Budget <= 0 {
		// Each edit re-signs at most σ ancestors; each re-signed vertex
		// changes its own M_v and its parent's, costing ≲4 packed elements
		// plus multiplicity-tag churn: the theorem's worst case, d edits each
		// at the bottom of a path of depth σ. Recon sends its message at this
		// budget in one round; a session (NewSchedule) makes it the cap of
		// its doubling and reaches it only when every smaller budget failed.
		p.Budget = 4*p.D*(p.Sigma+2) + 16
	}
	return p, core.Params{S: a.N + b.N, H: max(a.MaxChild, b.MaxChild), U: 0}
}

// encodeSide computes a party's signature-collection parent set under the
// shared coins, in the workspace.
func (w *forestWork) encodeSide(coins hashing.Coins, f *Forest) ([][]uint64, error) {
	children := w.childLists(f)
	sigs := w.hashSignatures(f, children, coins.Seed("forest/ahu", 0))
	return w.enc.Encode(w.vertexMultisets(children, sigs))
}

// AliceMsg builds Alice's Theorem 6.1 transmission — the cascaded signature
// payload plus the vertex-count meta frame — from her forest and the planned
// parameters. Split deployments ship both and apply them with Apply.
func AliceMsg(coins hashing.Coins, fa *Forest, p ReconParams, params core.Params) (sig, meta []byte, err error) {
	w := getForestWork()
	defer putForestWork(w)
	return w.aliceMsg(coins, fa, p, params)
}

func (w *forestWork) aliceMsg(coins hashing.Coins, fa *Forest, p ReconParams, params core.Params) (sig, meta []byte, err error) {
	parentA, err := w.encodeSide(coins, fa)
	if err != nil {
		return nil, nil, err
	}
	params, err = params.Normalized()
	if err != nil {
		return nil, nil, err
	}
	sig, err = core.AliceMsg(core.DigestCascade, coins.Sub("forest/sig", 0), parentA, params, p.Budget, 0)
	if err != nil {
		return nil, nil, err
	}
	// n travels alongside so Bob can verify the rebuilt vertex count.
	return sig, binary.LittleEndian.AppendUint64(nil, uint64(fa.N())), nil
}

// Apply runs Bob's Theorem 6.1 half: reconcile the signature collections and
// rebuild a forest isomorphic to Alice's.
func Apply(coins hashing.Coins, fb *Forest, p ReconParams, params core.Params, sigMsg, metaMsg []byte) (*Forest, error) {
	w := getForestWork()
	defer putForestWork(w)
	return w.apply(coins, fb, p, params, sigMsg, metaMsg)
}

func (w *forestWork) apply(coins hashing.Coins, fb *Forest, p ReconParams, params core.Params, sigMsg, metaMsg []byte) (*Forest, error) {
	parentB, err := w.encodeSide(coins, fb)
	if err != nil {
		return nil, err
	}
	params, err = params.Normalized()
	if err != nil {
		return nil, err
	}
	res, err := core.ApplyMsg(core.DigestCascade, coins.Sub("forest/sig", 0), sigMsg, parentB, params, p.Budget, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBudget, err)
	}
	if len(metaMsg) < 8 {
		return nil, fmt.Errorf("%w: short meta message", ErrRebuild)
	}
	// The vertex count is the peer's word; the shape both parties planned
	// under bounds it, and with it what the rebuild may allocate.
	wantN := binary.LittleEndian.Uint64(metaMsg)
	if wantN > uint64(params.S) {
		return nil, fmt.Errorf("%w: %d vertices claimed under a shape of %d", ErrRebuild, wantN, params.S)
	}
	return w.rebuild(res.Recovered, int(wantN))
}

// Schedule is verified doubling over the signature budget — Corollary 3.8's
// repetition applied to forests — and the one flow every forest session runs,
// in process and on the wire. Attempt k plans for a budget of min(16·2^k, Cap)
// under coins.Sub("forest-attempt", k), Bob verifies by rebuilding, and the
// attempt at Cap is the last. An edit bound only sets the cap: at Theorem 6.1's
// budget (see NewSchedule) the last attempt has Recon's one-round plan and
// budget under the attempt's coins, so a session fails with no higher
// probability than that plan, and one that succeeds earlier pays for the
// difference it has rather than for d edits each at the bottom of a depth-σ
// path.
type Schedule struct {
	// Cap is the budget of the last attempt.
	Cap int
}

// NewSchedule derives the schedule both parties read off their side infos: its
// cap is Plan's budget for p when p bounds the edits (p.D > 0; p.Sigma and
// p.Budget as Plan takes them), and maxBudget otherwise, never above
// maxBudget; maxBudget ≤ 0 means 2^20.
func NewSchedule(a, b SideInfo, p ReconParams, maxBudget int) Schedule {
	if maxBudget <= 0 {
		maxBudget = 1 << 20
	}
	if p.D <= 0 {
		return Schedule{Cap: maxBudget}
	}
	p, _ = Plan(a, b, p)
	return Schedule{Cap: min(p.Budget, maxBudget)}
}

// Attempts is the number of attempts the schedule allows: one for each budget
// 16·2^k below Cap, and the one at Cap.
func (s Schedule) Attempts() int {
	return 1 + bits.Len(uint(max(s.Cap-1, 0)/16))
}

// Ask is what attempt k plans for; Plan resolves the shape from the side
// infos.
func (s Schedule) Ask(k int) ReconParams {
	return ReconParams{Sigma: 1, D: 1, Budget: min(16<<k, s.Cap)}
}

// ReconAuto runs s: Recon at each attempt's budget, under the attempt's coins,
// until Bob rebuilds a forest. Bob answers each attempt with a one-byte "ack"
// or "retry".
func ReconAuto(sess *transport.Session, coins hashing.Coins, fa, fb *Forest, s Schedule) (*Forest, transport.Stats, error) {
	var lastErr error
	for k := range s.Attempts() {
		out, _, err := Recon(sess, coins.Sub("forest-attempt", k), fa, fb, s.Ask(k))
		if err == nil {
			sess.Send(transport.Bob, "ack", []byte{1})
			return out, sess.Stats(), nil
		}
		lastErr = err
		sess.Send(transport.Bob, "retry", []byte{0})
	}
	return nil, sess.Stats(), fmt.Errorf("%w: %v", ErrBudget, lastErr)
}

// rebuild reconstructs a forest (up to isomorphism) from a recovered
// collection of tagged M_v child sets produced by core.MultisetParentWork.
// wantN is verified against the rebuilt vertex count.
func (w *forestWork) rebuild(parent [][]uint64, wantN int) (*Forest, error) {
	// Each group is one distinct M_v, sorted: its child entries — repeated
	// once per child — then the marked parent entry, which the mark bit puts
	// last. counts[i] is the number of vertices carrying group i.
	groups, counts, err := w.dec.Decode(parent)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRebuild, err)
	}
	bySig := w.bySig
	totalVertices := 0
	for i, mv := range groups {
		last := len(mv) - 1
		if last < 0 || mv[last]>>47 != 1 {
			return nil, fmt.Errorf("%w: M_v missing parent mark", ErrRebuild)
		}
		if last > 0 && mv[last-1]>>47 == 1 {
			return nil, fmt.Errorf("%w: two parent marks in one M_v", ErrRebuild)
		}
		sig := mv[last] & sigMask
		if _, dup := bySig[sig]; dup {
			return nil, fmt.Errorf("%w: signature appears in two distinct M_v groups", ErrRebuild)
		}
		bySig[sig] = int32(i)
		groups[i] = mv[:last]
		if counts[i] > wantN {
			return nil, fmt.Errorf("%w: a group of %d vertices, want %d in all", ErrRebuild, counts[i], wantN)
		}
		totalVertices += counts[i]
	}
	if totalVertices != wantN {
		return nil, fmt.Errorf("%w: rebuilt %d vertices, want %d", ErrRebuild, totalVertices, wantN)
	}
	// Resolve child entries to group indexes once, counting how often each
	// group occurs as a child: its other vertices are roots.
	kids := slices.Grow(w.kids[:0], len(groups))[:len(groups)]
	kidIdx := slices.Grow(w.kidIdx[:0], setutil.TotalSize(groups))
	childOccur := slices.Grow(w.childOccur[:0], len(groups))[:len(groups)]
	clear(childOccur)
	w.kids, w.childOccur = kids, childOccur
	for i, mv := range groups {
		m := len(kidIdx)
		for _, q := range mv {
			gi, ok := bySig[q]
			if !ok {
				return nil, fmt.Errorf("%w: unknown child signature", ErrRebuild)
			}
			kidIdx = append(kidIdx, gi)
			childOccur[gi] += counts[i]
		}
		kids[i] = kidIdx[m:]
	}
	w.kidIdx = kidIdx
	w.out, w.next = New(totalVertices), 0
	for gi := range groups {
		rootCount := counts[gi] - childOccur[gi]
		if rootCount < 0 {
			return nil, fmt.Errorf("%w: negative root count", ErrRebuild)
		}
		for r := 0; r < rootCount; r++ {
			if err := w.build(int32(gi), -1, 1); err != nil {
				return nil, err
			}
		}
	}
	if w.next != totalVertices {
		return nil, fmt.Errorf("%w: built %d of %d vertices", ErrRebuild, w.next, totalVertices)
	}
	return w.out, nil
}

// build adds one vertex of group gi under parentIdx to the forest being
// rebuilt, and its subtree below it.
func (w *forestWork) build(gi int32, parentIdx, depth int) error {
	total := w.out.N()
	if depth > total {
		return fmt.Errorf("%w: cycle in signature graph", ErrRebuild)
	}
	if w.next >= total {
		return fmt.Errorf("%w: vertex overflow", ErrRebuild)
	}
	v := w.next
	w.next++
	w.out.Parent[v] = int32(parentIdx)
	for _, q := range w.kids[gi] {
		if err := w.build(q, v, depth+1); err != nil {
			return err
		}
	}
	return nil
}
