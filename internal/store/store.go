// Package store persists hosted datasets so a restarted server re-converges
// for O(d̂) instead of re-hosting from flat files with a cold cache: each
// dataset is an atomic, checksummed snapshot (contents + kind + shard
// binding + version) plus an append-only, fsynced WAL of mutations, replayed
// on boot and compacted into a fresh snapshot past a size threshold. Nothing
// on disk depends on a wire encoding.
//
// Two backends implement the Store interface: Mem (a process-local map — the
// pre-persistence behavior, useful for tests and ephemeral instances) and
// Disk (the durable one). Both speak the same Record/Update vocabulary, so
// the server's write-through wiring is backend-agnostic.
package store

import (
	"errors"
	"fmt"
)

// Kind mirrors the server's dataset kinds without importing it (sosrnet
// imports this package).
const (
	KindSet        = "set"
	KindMultiset   = "multiset"
	KindSetsOfSets = "sos"
	KindGraph      = "graph"
	KindForest     = "forest"
)

// Package errors.
var (
	// ErrUnknown indicates an operation on a dataset the store has no
	// snapshot for (an update can only follow a snapshot).
	ErrUnknown = errors.New("store: unknown dataset")
	// ErrCorrupt indicates a snapshot or WAL body that failed validation.
	// Torn WAL tails are NOT reported as ErrCorrupt — they are truncated
	// during Load and surfaced via Recovered.TruncatedWAL.
	ErrCorrupt = errors.New("store: corrupt record")
)

// ShardBinding pins a persisted dataset to one shard of a partitioned
// deployment: its position among Count shards at Epoch. A shard is its
// position, so no replica address is part of it, and a shard restarted from
// its store on another address serves the slice it served before.
type ShardBinding struct {
	Index int
	Count int
	Epoch uint64
}

// Record is one dataset's contents and persisted state, and the JSON form a
// dataset has wherever one is written down: an /admin/host body, an entry of a
// sosrd -data, -replica or -config file. Exactly one content field group is
// meaningful, selected by Kind: Elems (set: canonical; multiset: packed counted
// form once hosted, the elements with repeats as input), Parents (sos), N+Edges
// (graph), Parent (forest: each vertex's parent, -1 for a root). Version and
// Shard are the server's to set: no body or file can. Nothing derived from the
// contents is a field: every payload is rebuilt from them.
type Record struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Version uint64 `json:"-"`

	Elems   []uint64   `json:"elems,omitempty"`
	Parents [][]uint64 `json:"parents,omitempty"`
	N       int        `json:"n,omitempty"`
	Edges   [][2]int   `json:"edges,omitempty"`
	Parent  []int32    `json:"parent,omitempty"`

	Shard *ShardBinding `json:"-"`
}

// Update is one mutation — a WAL entry, and the JSON form of an /admin/update
// body — that took the dataset to Version. Add/Remove carry elements for
// set/multiset datasets, AddSets/RemoveSets child sets for sets-of-sets; in the
// WAL the lists are the post-shard-filter slices that were actually applied, so
// replay needs no topology.
type Update struct {
	Version    uint64     `json:"-"`
	Add        []uint64   `json:"add,omitempty"`
	Remove     []uint64   `json:"remove,omitempty"`
	AddSets    [][]uint64 `json:"add_sets,omitempty"`
	RemoveSets [][]uint64 `json:"remove_sets,omitempty"`
}

// Recovered is one dataset as Load returns it: the newest snapshot plus the
// WAL suffix to replay on top (entries with Version > Record.Version, in
// order). TruncatedWAL reports that a torn or corrupted WAL tail was cut
// off during the load — the durable prefix is intact, but the operator
// should know acknowledged updates may have been lost if the corruption was
// not a mid-write crash.
type Recovered struct {
	Record       *Record
	Updates      []*Update
	TruncatedWAL bool
}

// Store persists hosted datasets. Implementations must be safe for
// concurrent use; callers serialize per-dataset operations (the server holds
// the dataset lock across AppendUpdate and the commit it precedes, so WAL
// order always matches version order).
type Store interface {
	// SaveSnapshot atomically persists rec as the dataset's new base state
	// and retires WAL entries at or below rec.Version. Called on host, on
	// compaction, and on graceful shutdown.
	SaveSnapshot(rec *Record) error
	// AppendUpdate durably appends one mutation (fsync before return, for
	// backends with a sync guarantee). compact reports that the dataset's
	// WAL has outgrown the compaction threshold and the caller should
	// SaveSnapshot soon.
	AppendUpdate(name string, up *Update) (compact bool, err error)
	// Load returns every persisted dataset with its replayable WAL suffix.
	Load() ([]*Recovered, error)
	// Drop removes a dataset's persisted state.
	Drop(name string) error
	// Close releases backend resources (open WAL handles).
	Close() error
}

// validateKind rejects records with an unknown kind before they are written.
func validateKind(kind string) error {
	switch kind {
	case KindSet, KindMultiset, KindSetsOfSets, KindGraph, KindForest:
		return nil
	}
	return fmt.Errorf("%w: unknown kind %q", ErrCorrupt, kind)
}
