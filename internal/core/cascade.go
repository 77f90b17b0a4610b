package core

import (
	"slices"
	"sync"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// CascadeKnownD solves SSRK with Algorithm 2, "Cascading IBLTs of IBLTs"
// (Theorem 3.7). It exploits that there are O(d) total changes across child
// sets rather than O(d) changes in each: for i = 1..t with
// t = ⌈log₂ min(d, h)⌉, Alice sends a parent IBLT T_i of O(d/2^i) cells
// whose keys are (O(2^i)-cell child IBLT, hash) encodings; child sets with
// small differences decode at low levels, and each recovered set is deleted
// from all later levels. A level whose child key would be no narrower than a
// whole child set keys whole sets instead, in the same cells, and ends the
// cascade: nothing it carries is left outstanding. When d ≥ h the last level
// always is one, where the paper closes with a table T* of O(d/h) cells of
// whole sets; at small h or u the first level is, and the cascade is one
// naive table. One round, O(d log min(d,h) log u + d log s) bits, success
// probability Ω(1) (amplify with Replicated, or use CascadeUnknownD's
// verified doubling).
func CascadeKnownD(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params, d int) (*Result, error) {
	return knownD(DigestCascade, sess, coins, alice, bob, p, max(d, 1), 0)
}

// getWork takes a workspace from the pool; putWork releases it and hands it
// back. Every one-round encode and decode — Alice's three payloads, Bob's
// three applies, a sketch build or patch — runs on exactly one.
func getWork() *cascadeWork { return cascadeWorkPool.Get().(*cascadeWork) }

func putWork(w *cascadeWork) {
	w.release()
	cascadeWorkPool.Put(w)
}

var cascadeWorkPool = sync.Pool{New: func() any { return newCascadeWork() }}

func newCascadeWork() *cascadeWork {
	return &cascadeWork{
		byHash:      make(map[uint64][]uint64),
		removed:     make(map[uint64]bool),
		outstanding: make(map[uint64]bool),
		recovered:   make(map[uint64][]uint64),
		tally:       make(map[uint64]int32),
	}
}

// cascadeWork is the scratch of one one-round encode or decode, whichever the
// plan: the one parent table reshaped for every plan table, the child and
// full-set encoders, and on Bob's side the split message, the hash indexes,
// the packed parent diff and the recovered children. A hot call (same shape
// as the one before it on this workspace) finds every buffer already large
// enough and allocates only what it returns: Alice her payload, Bob his
// Result, which run copies out (packResult) and which shares no memory with
// the workspace, with msg, or with bob's child slices beyond what that copy
// reads. Building or patching a Bob sketch borrows the same workspace
// for its encoders and the parent diff. Nothing in a released workspace
// refers to the caller's message or parent set, so the pool pins no caller
// data.
type cascadeWork struct {
	plan        plan                // the plan of a call that was not handed a sketch's
	frames      [][]byte            // one table body per plan table, slices of the message
	byHash      map[uint64][]uint64 // Bob's child set by its hash
	removed     map[uint64]bool     // hashes of D_B, Bob's differing child sets
	outstanding map[uint64]bool     // Alice's differing child-set hashes not yet recovered
	recovered   map[uint64][]uint64 // Alice's child hash -> recovered set
	dA, dB      [][]uint64          // recovered sets (in rec's arena) and Bob's differing sets
	hashes      []uint64            // Bob's child hashes, computed here when no sketch has them
	sorted      []uint64            // the parent verification hash's sorted child hashes
	parent      iblt.Table          // one parent table, reshaped for every level
	diff        iblt.PackedDiff
	rec         childRecoverer
	enc         childEncoder
	whole       naiveEncoder
	shapes      []iblt.Shape     // a sketch build's table shapes
	tally       map[uint64]int32 // diffParents: occurrences of a child hash in the old parent not yet matched
	gone, come  [][]uint64       // diffParents: the children only the old, only the new parent holds

	// Per run, dropped by release.
	bob       [][]uint64
	bobHashes []uint64 // hashes, or the sketch's
	peels     int
}

// release drops every reference to the finished run's inputs and empties the
// collections, keeping their storage.
func (w *cascadeWork) release() {
	clear(w.frames[:cap(w.frames)])
	clear(w.dB[:cap(w.dB)])
	clear(w.dA[:cap(w.dA)])
	clear(w.gone[:cap(w.gone)])
	clear(w.come[:cap(w.come)])
	w.frames, w.dA, w.dB, w.gone, w.come = w.frames[:0], w.dA[:0], w.dB[:0], w.gone[:0], w.come[:0]
	clear(w.byHash)
	clear(w.removed)
	clear(w.outstanding)
	clear(w.recovered)
	w.rec.forget()
	w.bob, w.bobHashes, w.peels = nil, nil, 0
}

// diffParents splits two sketches' parents into the children only old holds
// and the children only next holds, matching children by hash as multisets: a
// child held twice by one parent and once by the other differs once. The
// lists are valid until release.
func (w *cascadeWork) diffParents(old, next *BobSketch) (gone, come [][]uint64) {
	for _, h := range old.bobHashes {
		w.tally[h]++
	}
	for i, h := range next.bobHashes {
		if n := w.tally[h]; n > 0 {
			w.tally[h] = n - 1
		} else {
			w.come = append(w.come, next.bob[i])
		}
	}
	for i, h := range old.bobHashes {
		if n := w.tally[h]; n > 0 {
			w.tally[h] = n - 1
			w.gone = append(w.gone, old.bob[i])
		}
	}
	clear(w.tally)
	return w.gone, w.come
}

// parentHash is the package's parentHash with the sort done in the workspace.
func (w *cascadeWork) parentHash(coins hashing.Coins, parent [][]uint64) (h uint64) {
	h, w.sorted = parentHashScratch(w.sorted, coins, parent)
	return h
}

// hashBob computes Bob's child hashes, or adopts a sketch's.
func (w *cascadeWork) hashBob(chs uint64, bob [][]uint64, sk *BobSketch) {
	w.bob = bob
	if sk != nil {
		w.bobHashes = sk.bobHashes
		return
	}
	w.hashes = slices.Grow(w.hashes[:0], len(bob))[:len(bob)]
	for i, cs := range bob {
		w.hashes[i] = setutil.Hash(chs, cs)
	}
	w.bobHashes = w.hashes
}

// indexBob maps each of Bob's child hashes (hashBob) to its child set.
func (w *cascadeWork) indexBob() {
	for i, cs := range w.bob {
		w.byHash[w.bobHashes[i]] = cs
	}
}

// CascadeUnknownD solves SSRU per Corollary 3.8: repeated doubling over d
// with per-attempt coins and Bob acknowledgements (O(log d) rounds).
func CascadeUnknownD(sess *transport.Session, coins hashing.Coins, alice, bob [][]uint64, p Params) (*Result, error) {
	return doublingLoop(sess, coins, alice, bob, p, func(sess *transport.Session, att hashing.Coins, d int) (*Result, error) {
		return CascadeKnownD(sess, att, alice, bob, p, d)
	})
}
