package sosrnet

import (
	"fmt"
	"slices"

	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/store"
)

// The kind table: everything that differs between the hosted dataset kinds,
// one entry each. The hosting, update, persistence, summary and serving code
// around it is written once and never asks which kind it has in hand; it calls
// through the dataset's entry. Adding a kind is adding an entry (and the typed
// wrappers of the exported API).
//
// A store.Record is the neutral form of a dataset's contents (it has a field
// group per kind) and a store.Update the neutral form of a mutation, so the
// exported Host* and Update* wrappers put their arguments into one and the
// recovery path hands in what the store decoded.

// contents is a hosted dataset's data in canonical form. A dataset and every
// session view taken of it share one value: the slices and structures behind
// it are never written after hosting, an update installs a fresh value.
type contents struct {
	set []uint64   // KindSet: canonical; KindMultiset: the canonical §3.4 packing
	sos [][]uint64 // KindSetsOfSets: canonical child sets
	g   *graph.Graph
	f   *forest.Forest
	fi  forest.SideInfo // measured once at hosting; part of every forest plan
}

// kindEntry is one row of the kind table.
type kindEntry struct {
	kind Kind

	// canon rewrites an API caller's input in rec into what decode hosts and
	// the store persists — a canonical copy, only the slice own's shard owns
	// (nil own keeps everything) — and validates it. Nil when decode does all
	// there is to do.
	canon func(rec *store.Record, own *shardState) error
	// decode builds contents from a canonical record, encode writes them back
	// into one: the record codec.
	decode func(rec *store.Record) (contents, error)
	encode func(c *contents, rec *store.Record)
	// items is the hosted size in the kind's natural unit and hash an
	// order-invariant digest of the contents under contentHashSeed.
	items func(c *contents) int
	hash  func(c *contents) uint64

	// Kinds that take live updates set prepare and stage; nil stage means the
	// kind takes none. prepare range-checks a mutation — before the ownership
	// filter, so a malformed broadcast is rejected identically on every shard
	// — and then narrows it in place to its canonical, owned part, clearing
	// the fields the kind does not read. stage validates the prepared mutation
	// against the hosted contents and returns the next contents, touching no
	// state. commit, when set, runs between the journal append and the
	// install to patch what the dataset derives from its contents; it cannot
	// fail, stage has validated everything.
	prepare func(up *store.Update, own *shardState) error
	stage   func(c *contents, up *store.Update) (contents, error)
	commit  func(d *dataset, up *store.Update)

	// plan validates a session's hello against its view, records the protocol
	// label and the audited bounds on rec, fills the accept message and
	// returns the session's plan; the serving code (flow.go) takes it from
	// there.
	plan func(s *Server, rec *sessionRecord, acc *acceptMsg) (alicePlan, error)
}

// kinds is the table.
var kinds = []*kindEntry{&setKind, &multisetKind, &sosKind, &graphKind, &forestKind}

// kindOf returns the entry for a kind name, nil when there is none.
func kindOf(kind Kind) *kindEntry {
	for _, k := range kinds {
		if k.kind == kind {
			return k
		}
	}
	return nil
}

var setKind = kindEntry{
	kind: KindSet,
	canon: func(rec *store.Record, own *shardState) error {
		rec.Elems = setutil.Canonical(own.ownedElems(rec.Elems))
		// The 2^60 universe, so every protocol variant can serve the set.
		return setrecon.CheckRange(rec.Elems)
	},
	decode: decodeElems, encode: encodeElems, items: countElems, hash: hashElems,
	prepare: func(up *store.Update, own *shardState) error {
		if err := setrecon.CheckRange(up.Add); err != nil {
			return err
		}
		*up = store.Update{Add: own.ownedElems(up.Add), Remove: own.ownedElems(up.Remove)}
		return nil
	},
	// Removing an absent element is a no-op, matching set semantics.
	stage: func(c *contents, up *store.Update) (contents, error) {
		return contents{set: setutil.ApplyDiff(c.set, up.Add, up.Remove)}, nil
	},
	plan: planSet,
}

// multisetKind hosts a multiset as its §3.4 packing, a set of (element,
// multiplicity) words, and serves it exactly as a set. Ownership follows the
// element value, so every occurrence of one element lands on the same shard
// and the packing stays shard-local.
var multisetKind = kindEntry{
	kind: KindMultiset,
	canon: func(rec *store.Record, own *shardState) (err error) {
		rec.Elems, err = setrecon.MultisetToSet(own.ownedElems(rec.Elems))
		return err
	},
	decode: decodeElems, encode: encodeElems, items: countElems, hash: hashElems,
	prepare: func(up *store.Update, own *shardState) error {
		for _, x := range up.Add {
			if x > setrecon.MaxMultisetElement {
				return fmt.Errorf("%w: element %d", setrecon.ErrMultisetRange, x)
			}
		}
		*up = store.Update{Add: own.ownedElems(up.Add), Remove: own.ownedElems(up.Remove)}
		return nil
	},
	stage: stageMultiset,
	plan:  planSet,
}

var sosKind = kindEntry{
	kind: KindSetsOfSets,
	canon: func(rec *store.Record, own *shardState) error {
		rec.Parents = own.ownedCanonicalSets(rec.Parents)
		return nil
	},
	decode: func(rec *store.Record) (contents, error) { return contents{sos: rec.Parents}, nil },
	encode: func(c *contents, rec *store.Record) { rec.Parents = c.sos },
	items:  func(c *contents) int { return len(c.sos) },
	hash:   func(c *contents) uint64 { return setutil.HashSetOfSets(contentHashSeed, c.sos) },
	prepare: func(up *store.Update, own *shardState) error {
		*up = store.Update{AddSets: own.ownedCanonicalSets(up.AddSets), RemoveSets: own.ownedCanonicalSets(up.RemoveSets)}
		return nil
	},
	stage:  stageSOS,
	commit: (*dataset).patchLive,
	plan:   planSOS,
}

var graphKind = kindEntry{
	kind: KindGraph,
	decode: func(rec *store.Record) (contents, error) {
		g, err := graph.FromEdges(rec.N, rec.Edges)
		return contents{g: g}, err
	},
	encode: func(c *contents, rec *store.Record) { rec.N, rec.Edges = c.g.N, c.g.Edges() },
	items:  func(c *contents) int { return c.g.EdgeCount() },
	hash: func(c *contents) uint64 {
		// Each undirected edge packed into one word, canonicalized so the
		// digest is independent of adjacency insertion order.
		edges := c.g.Edges()
		packed := make([]uint64, 0, len(edges))
		for _, e := range edges {
			packed = append(packed, uint64(e[0])<<32|uint64(uint32(e[1])))
		}
		return setutil.Hash(contentHashSeed, setutil.Canonical(packed))
	},
	plan: planGraph,
}

var forestKind = kindEntry{
	kind: KindForest,
	decode: func(rec *store.Record) (contents, error) {
		f := &forest.Forest{Parent: rec.Parent}
		if err := f.Validate(); err != nil {
			return contents{}, err
		}
		return contents{f: f, fi: forest.Measure(f)}, nil
	},
	encode: func(c *contents, rec *store.Record) { rec.Parent = c.f.Parent },
	items:  func(c *contents) int { return len(c.f.Parent) },
	hash: func(c *contents) uint64 {
		// Positional: the parent array is the content.
		words := make([]uint64, len(c.f.Parent))
		for i, p := range c.f.Parent {
			words[i] = uint64(uint32(p))
		}
		return hashing.HashUint64s(contentHashSeed, words)
	},
	plan: planForest,
}

func decodeElems(rec *store.Record) (contents, error) { return contents{set: rec.Elems}, nil }
func encodeElems(c *contents, rec *store.Record)      { rec.Elems = c.set }
func countElems(c *contents) int                      { return len(c.set) }
func hashElems(c *contents) uint64                    { return setutil.Hash(contentHashSeed, c.set) }

// ownedElems filters xs down to the elements this shard owns; a nil shard
// state (an unsharded dataset) owns everything.
func (ss *shardState) ownedElems(xs []uint64) []uint64 {
	if ss == nil {
		return xs
	}
	return ss.m.OwnedElems(ss.Index, xs)
}

// ownedCanonicalSets returns canonical copies of the child sets of parent that
// this shard owns. Ownership is decided on canonical children; the owned ones
// are then packed on their own, so a shard does not pin the whole parent's
// arena.
func (ss *shardState) ownedCanonicalSets(parent [][]uint64) [][]uint64 {
	canon := setutil.CanonicalSets(parent)
	if ss == nil {
		return canon
	}
	return setutil.CanonicalSets(ss.m.OwnedSets(ss.Index, canon))
}

// stageSOS validates a canonical, shard-filtered sets-of-sets mutation
// against the hosted parent — every removed child must be hosted, every added
// one must not be (parents are sets) — and builds the next parent slice. Only
// the mutation is hash-indexed, so the pass over a large hosted parent hashes
// each child once and allocates O(|update|), not O(|sos|).
func stageSOS(c *contents, up *store.Update) (contents, error) {
	addC, removeC := up.AddSets, up.RemoveSets
	const memberSeed = 0xd15717c7 // same salt Validate uses for dedup
	rmByHash := make(map[uint64][]int, len(removeC))
	for i, cs := range removeC {
		h := setutil.Hash(memberSeed, cs)
		rmByHash[h] = append(rmByHash[h], i)
	}
	// dupAdd is the first add equal to an earlier add or to a child that
	// stays hosted.
	dupAdd := len(addC)
	addByHash := make(map[uint64][]int, len(addC))
	for i, cs := range addC {
		h := setutil.Hash(memberSeed, cs)
		for _, j := range addByHash[h] {
			if setutil.Equal(cs, addC[j]) {
				dupAdd = min(dupAdd, i)
			}
		}
		addByHash[h] = append(addByHash[h], i)
	}
	taken := make([]bool, len(removeC))
	next := make([][]uint64, 0, len(c.sos)+len(addC))
outer:
	for _, cs := range c.sos {
		h := setutil.Hash(memberSeed, cs)
		for _, i := range rmByHash[h] {
			if !taken[i] && setutil.Equal(cs, removeC[i]) {
				taken[i] = true
				continue outer
			}
		}
		for _, i := range addByHash[h] {
			if setutil.Equal(cs, addC[i]) {
				dupAdd = min(dupAdd, i)
			}
		}
		next = append(next, cs)
	}
	for i, ok := range taken {
		if !ok {
			return contents{}, fmt.Errorf("remove[%d] is not hosted", i)
		}
	}
	if dupAdd < len(addC) {
		return contents{}, fmt.Errorf("add[%d] already hosted", dupAdd)
	}
	return contents{sos: append(next, addC...)}, nil
}

// patchLive applies a staged sets-of-sets mutation to every live one-round
// digest, in O(|add| + |remove|) child encodes each; a patch failure (which
// staging should preclude) drops that digest rather than serving corrupt
// bytes. Caller holds d.mu.
func (d *dataset) patchLive(up *store.Update) {
	for lk, dig := range d.live {
		ok := true
		for _, cs := range up.RemoveSets {
			if dig.Remove(cs) != nil {
				ok = false
				break
			}
		}
		if ok {
			for _, cs := range up.AddSets {
				if dig.Add(cs) != nil {
					ok = false
					break
				}
			}
		}
		if !ok {
			d.dropLive(lk)
		}
	}
}

// stageMultiset validates a shard-filtered multiset mutation against the
// hosted packing — each occurrence in Add raises its element's multiplicity
// by one, each in Remove lowers it; going below zero or past the §3.4 packing
// limit rejects the whole mutation — and returns the next packed contents.
// Only the mutation is indexed: hosted words it does not name pass through
// untouched.
func stageMultiset(c *contents, up *store.Update) (contents, error) {
	delta := make(map[uint64]int64, len(up.Add)+len(up.Remove))
	for _, x := range up.Remove {
		delta[x]--
	}
	for _, x := range up.Add {
		delta[x]++
	}
	// restage folds x's staged change into its hosted multiplicity k and
	// appends what remains of it to packed.
	restage := func(packed []uint64, x, k uint64) ([]uint64, error) {
		next := int64(k) + delta[x]
		switch {
		case next < 0:
			return nil, fmt.Errorf("remove of element %d exceeds its multiplicity %d", x, k)
		case next > int64(setrecon.MaxMultiplicity):
			return nil, fmt.Errorf("%w: element %d would reach multiplicity %d", setrecon.ErrMultisetRange, x, next)
		case next > 0:
			packed = append(packed, setrecon.PackCounted(x, uint64(next)))
		}
		return packed, nil
	}
	packed := make([]uint64, 0, len(c.set)+len(delta))
	var err error
	for _, w := range c.set {
		x, k := setrecon.UnpackCounted(w)
		if _, staged := delta[x]; !staged {
			packed = append(packed, w)
			continue
		}
		if packed, err = restage(packed, x, k); err != nil {
			return contents{}, err
		}
		delete(delta, x)
	}
	for x := range delta { // elements not hosted yet
		if packed, err = restage(packed, x, 0); err != nil {
			return contents{}, err
		}
	}
	slices.Sort(packed)
	return contents{set: packed}, nil
}

// setCellBytes is one cell of a plain set's IBLT as Marshal lays it out: a
// 4-byte count, an 8-byte element and a checksum.
var setCellBytes = iblt.CellsSize(1, iblt.WordWidth, 1, 4)
