package worktest

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"sosr/internal/prng"
	"sosr/internal/raceflag"
	"sosr/internal/setutil"
	"sosr/internal/workload"
)

// Do is what one step of a stream does.
type Do int

const (
	// Host hosts a fresh generation of a dataset (its name is the base name
	// and the generation number), drawn from the step's seed.
	Host Do = iota
	// Update applies a mutation that must take (unless its fault refuses it).
	Update
	// BadUpdate sends a mutation that must be refused whole.
	BadUpdate
	// Reconcile runs one flow-table row against the dataset.
	Reconcile
	// Idle leaves the client's connections parked for a while; the next
	// step reuses them.
	Idle
	// Snapshot snapshots the dataset, compacting its WAL.
	Snapshot
	// Crash abandons the server and its store without closing either, and
	// recovers a new server from what the store holds.
	Crash
	// KillReplica kills one replica of every shard for one reconcile.
	KillReplica
	// EpochBump re-hosts every dataset at the next topology epoch; the
	// client learns the new topology only after a session is refused stale.
	EpochBump
)

var doNames = []string{"host", "update", "bad-update", "reconcile", "idle", "snapshot", "crash", "kill-replica", "epoch-bump"}

func (d Do) String() string { return doNames[d] }

// Bob is the replica a reconcile row runs against the dataset.
type Bob int

const (
	// Near is the dataset with a few small edits.
	Near Bob = iota
	// Rewritten is the dataset with one child set rewritten whole, and
	// nothing else changed.
	Rewritten
	// Duplicated is Near holding one child set twice.
	Duplicated
	// Scattered is the dataset with every child set edited by one element:
	// as many differing child sets as the parent holds, on every shard.
	Scattered
)

// Local reports whether the row's failure lies in one child set, so that on
// a grid only the shard owning it fails.
func (b Bob) Local() bool { return b == Rewritten || b == Duplicated }

// Class is a failure class. A row names the class it fails in by
// construction, and each leg maps a class to its sentinel errors, in process
// and over the wire.
type Class int

const (
	// None: the row's sessions succeed.
	None Class = iota
	ParentDecode
	ChildDecode
	Verify
	InvalidInstance
	// GaveUp wraps the cause of every exhausted replicated or doubling run;
	// no row fails in it alone.
	GaveUp
	SetDecode
	SetVerify
)

var classNames = []string{"none", "parent-decode", "child-decode", "verify", "invalid-instance", "gave-up", "set-decode", "set-verify"}

func (c Class) String() string { return classNames[c] }

// EndsIn reports whether a run whose error carries the classes got ended as
// the row says: a row that fails ends in exactly its class, give-up aside;
// any other row succeeds.
func (r Row) EndsIn(err error, got []Class) bool {
	if r.Fails == None {
		return err == nil
	}
	cause := slices.DeleteFunc(slices.Clone(got), func(c Class) bool { return c == GaveUp })
	return slices.Equal(cause, []Class{r.Fails})
}

// Row is one row of the flow table: the dataset a reconcile runs against
// and its configuration. The fields mirror sosr's configs, and a leg maps
// them; −1 is a bound the caller left negative, which means unset.
type Row struct {
	Name     string
	Base     string
	Protocol string // sets of sets: naive|nested|cascade|multiround|auto; graphs: degree|neighborhood|polynomial
	D        int    // the known difference bound; 0 is unknown
	DHat     int
	Replicas int
	S, H     int
	Depth    int
	CharPoly bool
	Validate bool
	Bob      Bob
	Fails    Class // the class the row fails in by construction; None for a row that succeeds
}

// Rows is the flow table: every kind, every protocol with a known and an
// unknown bound, every bound left negative, and one row per error class (the
// gave-up row's two replicas both fail their parent decode). At the docs
// shape naive, and nested at d = 24, are one whole-set table; nested and
// cascade at d ≤ 2 key child sets by child IBLTs only; cascade at d = 24 has
// child levels and then a whole-set level.
var Rows = []Row{
	{Name: "set", Base: "ids", D: 16},
	{Name: "set/unknown-d", Base: "ids"},
	{Name: "set/charpoly", Base: "ids", D: 12, CharPoly: true},
	{Name: "set/d=-1", Base: "ids", D: -1},
	{Name: "multiset", Base: "bag", D: 16},
	{Name: "multiset/unknown-d", Base: "bag"},
	{Name: "multiset/d=-1", Base: "bag", D: -1},
	{Name: "sos/naive", Base: "docs", Protocol: "naive", D: 24},
	{Name: "sos/naive-probe", Base: "docs", Protocol: "naive"},
	{Name: "sos/nested", Base: "docs", Protocol: "nested", D: 24},
	{Name: "sos/nested-doubling", Base: "docs", Protocol: "nested"},
	{Name: "sos/cascade", Base: "docs", Protocol: "cascade", D: 24},
	{Name: "sos/cascade-doubling", Base: "docs", Protocol: "cascade"},
	{Name: "sos/multiround", Base: "docs", Protocol: "multiround", D: 24},
	{Name: "sos/multiround-4", Base: "docs", Protocol: "multiround"},
	{Name: "sos/auto", Base: "docs", Protocol: "auto", D: 24},
	{Name: "sos/shape+validate", Base: "docs", Protocol: "cascade", D: 24, S: 96, H: 80, Validate: true},
	{Name: "sos/d=-1", Base: "docs", Protocol: "cascade", D: -1},
	{Name: "sos/dhat=-1", Base: "docs", Protocol: "nested", D: 24, DHat: -1},
	{Name: "sos/replicas=-1", Base: "docs", Protocol: "cascade", D: 24, Replicas: -1},
	{Name: "sos/s=-1", Base: "docs", Protocol: "cascade", D: 24, S: -1},
	{Name: "sos/h=-1", Base: "docs", Protocol: "cascade", D: 24, H: -1},
	{Name: "sos/parent-decode", Base: "docs", Protocol: "cascade", D: 1, Replicas: 1, Bob: Scattered, Fails: ParentDecode},
	{Name: "sos/gave-up", Base: "docs", Protocol: "cascade", D: 1, Replicas: 2, Bob: Scattered, Fails: ParentDecode},
	{Name: "sos/child-decode", Base: "docs", Protocol: "cascade", D: 2, DHat: 24, Replicas: 1, Bob: Rewritten, Fails: ChildDecode},
	{Name: "sos/verify", Base: "docs", Protocol: "naive", D: 24, Bob: Duplicated, Fails: Verify},
	{Name: "sos/invalid-instance", Base: "docs", Protocol: "cascade", D: 24, H: 4, Fails: InvalidInstance},
	{Name: "graph/degree", Base: "net", Protocol: "degree", D: 2},
	{Name: "graph/neighborhood", Base: "soc", Protocol: "neighborhood", D: 1},
	{Name: "graph/polynomial", Base: "tiny", Protocol: "polynomial", D: 2},
	{Name: "forest", Base: "tree", D: 3},
	{Name: "forest/auto", Base: "tree"},
	{Name: "forest/d=-1", Base: "tree", D: -1},
	{Name: "forest/depth=-1", Base: "tree", D: 3, Depth: -1},
}

// Kinds names the store kind of every base dataset.
var Kinds = map[string]string{"ids": "set", "bag": "multiset", "docs": "sos", "net": "graph", "soc": "graph", "tiny": "graph", "tree": "forest"}

// Bases lists every base dataset of Kinds, in the order a stream over all of
// them hosts them.
var Bases = []string{"ids", "bag", "docs", "net", "soc", "tiny", "tree"}

// Op is one step of a stream.
type Op struct {
	Step  int
	Do    Do
	Name  string // the dataset the step touches, by its hosted name
	Base  string
	Seed  uint64 // the data (Host); Bob's edits and the coins (Reconcile, KillReplica); the refusal (BadUpdate)
	Row   Row
	Fault Fault
	// A mutation (Update, BadUpdate).
	Add, Remove         []uint64
	AddSets, RemoveSets [][]uint64
	// Broadcast sends a grid's Update verbatim to every server, each of
	// which applies the part its shard owns, instead of routing it through
	// the coordinator.
	Broadcast bool
}

func (op Op) String() string {
	s := fmt.Sprintf("step %d: %s %s seed=%d", op.Step, op.Do, op.Name, op.Seed)
	if op.Do == Reconcile || op.Do == KillReplica {
		s += " row=" + op.Row.Name
	}
	if op.Fault != NoFault {
		s += " fault=" + op.Fault.String()
	}
	if op.Broadcast {
		s += " broadcast"
	}
	return s
}

// Shape is what a deployment takes: the datasets it hosts and the ops and
// faults beyond host, update, reconcile and idle that apply to it.
type Shape struct {
	Bases  []string
	Faults []Fault
	Store  bool // Snapshot and Crash
	Grid   bool // KillReplica, EpochBump and broadcast updates
}

// Steps is the length of a stream; coins is how many session seeds it draws
// from.
const Steps, coins = 300, 16

// Follow is the row of the follow run: a known-d one-round row whose shape is
// explicit, so an update that changes the data moves neither the key of the
// server's payload nor that of Bob's sketch. FollowCoin is the run's coin,
// and the coin of the crash probe's hello of the row.
var Follow = Rows[slices.IndexFunc(Rows, func(r Row) bool { return r.Name == "sos/shape+validate" })]

const FollowCoin = 9

// Stream is the op list one seed gives a shape. Every base is hosted first;
// then every row of the flow table for the shape's bases, every fault, every
// kind of refused mutation and every op the shape takes appear at least once,
// shuffled among random draws, up to Steps; on a grid, half of each base's
// updates are broadcast. Under -race or -short the stream is that deck alone:
// every op once, and on a grid an update of each base by each route. The
// follow run ends it (follow).
func Stream(seed uint64, sh Shape) []Op {
	n := Steps
	if raceflag.Enabled || testing.Short() {
		n = 0
	}
	src := prng.New(seed)
	var deck, draws []Op
	add := func(ops *[]Op, op Op) {
		if slices.Contains(sh.Bases, op.Base) {
			*ops = append(*ops, op)
		}
	}
	for _, row := range Rows {
		add(&deck, Op{Do: Reconcile, Base: row.Base, Row: row})
		// A neighborhood session costs a hundred of the others: once a leg.
		if row.Protocol != "neighborhood" {
			add(&draws, Op{Do: Reconcile, Base: row.Base, Row: row})
		}
	}
	for _, base := range sh.Bases {
		add(&deck, Op{Do: Host, Base: base})
		if Kinds[base] == "graph" || Kinds[base] == "forest" {
			continue
		}
		add(&deck, Op{Do: Update, Base: base})
		if sh.Grid {
			add(&deck, Op{Do: Update, Base: base, Broadcast: true})
		}
		for v := range badUpdates[Kinds[base]] {
			add(&deck, Op{Do: BadUpdate, Base: base, Seed: uint64(v)})
			add(&draws, Op{Do: BadUpdate, Base: base, Seed: uint64(v)})
		}
		for i := range 4 {
			add(&draws, Op{Do: Update, Base: base, Broadcast: sh.Grid && i%2 == 1})
		}
		if sh.Store {
			add(&deck, Op{Do: Snapshot, Base: base})
			add(&draws, Op{Do: Snapshot, Base: base})
		}
	}
	updatable := slices.DeleteFunc(slices.Clone(sh.Bases), func(b string) bool { return Kinds[b] == "graph" || Kinds[b] == "forest" })
	more := []Op{{Do: Idle}}
	for _, f := range sh.Faults {
		switch f {
		case AppendFails:
			more = append(more, Op{Do: Update, Base: updatable[src.Intn(len(updatable))], Fault: f})
		case SnapshotFails:
			more = append(more, Op{Do: Snapshot, Base: updatable[src.Intn(len(updatable))], Fault: f})
		default:
			more = append(more, Op{Do: Reconcile, Fault: f})
		}
	}
	if sh.Store {
		more = append(more, Op{Do: Crash})
	}
	if sh.Grid {
		more = append(more, Op{Do: KillReplica}, Op{Do: EpochBump})
	}
	deck = append(deck, more...)
	draws = append(draws, more...)
	ops := make([]Op, 0, max(n, len(deck)+len(sh.Bases)))
	for _, base := range sh.Bases {
		ops = append(ops, Op{Do: Host, Base: base})
	}
	ops = append(ops, deck...)
	for len(ops) < n {
		ops = append(ops, draws[src.Intn(len(draws))])
	}
	tail := slices.Clone(ops[len(sh.Bases):])
	for i, j := range src.Perm(len(tail)) {
		ops[len(sh.Bases)+i] = tail[j]
	}
	m := NewModel()
	ops = materialize(m, ops, src, sh.Bases)
	if slices.Contains(sh.Bases, Follow.Base) {
		ops = follow(m, ops, src, sh)
	}
	return ops
}

// follow appends the follow run: three sessions of Follow at FollowCoin, each
// after an update of its dataset, so each is on a version no step before it
// saw and the server encodes it. The second one promotes its key to a live
// digest, the update after it patches that digest, and the third session is
// served from it. Bob's parent follows the data, so the client derives its
// third sketch by patching the second. On a store one more update patches the
// digest and a crash follows, whose probe the patched digest serves. On a grid
// the second update is broadcast, the others routed.
func follow(m *Model, ops []Op, src *prng.Source, sh Shape) []Op {
	run := []Do{Update, Reconcile, Update, Reconcile, Update, Reconcile}
	if sh.Store {
		run = append(run, Update, Crash)
	}
	for i, do := range run {
		op := Op{Step: len(ops), Do: do}
		d := m.Cur(Follow.Base)
		switch do {
		case Update:
			op.Base, op.Name, op.Seed, op.Broadcast = d.Base, d.Name, src.Uint64(), sh.Grid && i == 2
			op.churn(d, src, 8)
		case Reconcile:
			op.Base, op.Name, op.Seed, op.Row = d.Base, d.Name, FollowCoin, Follow
		}
		m.Apply(op)
		ops = append(ops, op)
	}
	return ops
}

// materialize fills every op in against a running model: the hosted names,
// the seeds, the mutations, the rows of reconciles drawn with a fault.
func materialize(m *Model, ops []Op, src *prng.Source, bases []string) []Op {
	for i := range ops {
		op := &ops[i]
		op.Step = i
		if (op.Do == Reconcile && op.Row.Name == "") || op.Do == KillReplica {
			op.Row = rowFor(bases, src)
			op.Base = op.Row.Base
		}
		switch op.Do {
		case Reconcile, KillReplica:
			// Few coins, so sessions meet cached payloads and sketches of
			// earlier versions of their data.
			op.Seed = src.Uint64n(coins)
		case BadUpdate:
		default:
			op.Seed = src.Uint64()
		}
		d := m.Cur(op.Base)
		switch op.Do {
		case Host:
			op.Name = m.nextName(op.Base)
		case Update:
			op.Name = d.Name
			if op.Broadcast {
				op.spread(d, src)
			} else {
				op.mutate(d, src)
			}
		case BadUpdate:
			op.Name = d.Name
			badUpdates[Kinds[op.Base]][op.Seed](op, d, src)
		default:
			if d != nil {
				op.Name = d.Name
			}
		}
		m.Apply(*op)
	}
	return ops
}

// rowFor draws a row of the flow table for one of bases, skipping the rows
// that fail by construction (a fault or a killed replica must be seen on a
// session that would have succeeded) and the costly neighborhood row.
func rowFor(bases []string, src *prng.Source) Row {
	for {
		row := Rows[src.Intn(len(Rows))]
		if slices.Contains(bases, row.Base) && row.Fails == None && row.Protocol != "neighborhood" {
			return row
		}
	}
}

// Data is a dataset in the model: its contents (Elems for a set or a
// multiset, Sets for a set of sets; a graph or a forest is its Seed, from
// which the leg builds it), its version and the updates journaled since its
// last snapshot.
type Data struct {
	Name, Base, Kind string
	Seed             uint64
	Elems            []uint64
	Sets             [][]uint64
	Version          uint64
	WAL              int
}

// Model is what every deployment must agree with: the datasets hosted so far.
type Model struct {
	All []*Data // every generation hosted, in order
	cur map[string]*Data
	gen map[string]int
}

func NewModel() *Model { return &Model{cur: map[string]*Data{}, gen: map[string]int{}} }

// Cur returns the current generation of base, nil before it is hosted.
func (m *Model) Cur(base string) *Data { return m.cur[base] }

func (m *Model) nextName(base string) string {
	return fmt.Sprintf("%s.%d", base, m.gen[base]+1)
}

// Apply records what op does to the hosted data when the deployment gets it
// right: a mutation refused by its fault, a refused mutation and a failed
// snapshot change nothing.
func (m *Model) Apply(op Op) {
	d := m.cur[op.Base]
	switch op.Do {
	case Host:
		m.host(&Data{Name: op.Name, Base: op.Base, Kind: Kinds[op.Base], Seed: op.Seed})
	case Update:
		if op.Fault == AppendFails {
			return
		}
		nd := *d
		switch d.Kind {
		case "set":
			nd.Elems = setutil.ApplyDiff(d.Elems, op.Add, op.Remove)
		case "multiset":
			nd.Elems = slices.Sorted(slices.Values(append(slices.Clone(d.Elems), op.Add...)))
			for _, x := range op.Remove {
				i, _ := slices.BinarySearch(nd.Elems, x)
				nd.Elems = slices.Delete(nd.Elems, i, i+1)
			}
		case "sos":
			nd.Sets = slices.DeleteFunc(slices.Clone(d.Sets), func(cs []uint64) bool {
				return slices.ContainsFunc(op.RemoveSets, func(r []uint64) bool { return slices.Equal(cs, r) })
			})
			nd.Sets = append(nd.Sets, setutil.CanonicalSets(op.AddSets)...)
		}
		nd.Version++
		nd.WAL++
		m.replace(d, &nd)
	case Snapshot:
		if op.Fault != SnapshotFails {
			d.WAL = 0
		}
	case Crash:
		for _, d := range m.All {
			d.WAL = 0
		}
	case EpochBump:
		for _, base := range slices.Sorted(maps.Keys(m.cur)) {
			d := *m.cur[base]
			d.Name, d.Version, d.WAL = m.nextName(base), 0, 0
			m.host(&d)
		}
	}
}

func (m *Model) host(d *Data) {
	if d.Elems == nil && d.Sets == nil {
		d.Elems, d.Sets = hostData(d.Kind, d.Seed)
	}
	m.gen[d.Base]++
	m.cur[d.Base] = d
	m.All = append(m.All, d)
}

func (m *Model) replace(old, d *Data) {
	m.All[slices.Index(m.All, old)] = d
	m.cur[d.Base] = d
}

// Result is what a reconcile recovered: the data, the two sides of the
// difference when the kind reports them, and the attempts.
type Result struct {
	Data, A, B any
	Attempts   int
}

// Whole is what a reconcile of op's row against d that succeeds must recover,
// computed from the model alone: d's contents and, for a set or a set of
// sets, the members only d holds and those only Bob's replica holds, by set
// difference, in canonical order. Attempts is 0, and a multiset reports no
// difference. A graph or a forest is built from its seed by the deployment,
// which holds it to Alice's up to isomorphism; for one Whole is the zero
// Result.
func Whole(d *Data, op Op) Result {
	switch d.Kind {
	case "set":
		bob, eq := setutil.Canonical(op.BobElems(d)), func(x, y uint64) bool { return x == y }
		return Result{d.Elems, minus(d.Elems, bob, eq), minus(bob, d.Elems, eq), 0}
	case "multiset":
		return Result{Data: d.Elems}
	case "sos":
		alice, bob := setutil.CanonicalSets(d.Sets), setutil.CanonicalSets(op.BobSets(d))
		setutil.SortSets(alice)
		setutil.SortSets(bob)
		return Result{alice, minus(alice, bob, slices.Equal), minus(bob, alice, slices.Equal), 0}
	}
	return Result{}
}

// minus returns, in a's order, the members of a that b does not hold, nil
// when there are none.
func minus[T any](a, b []T, eq func(x, y T) bool) []T {
	var out []T
	for _, x := range a {
		if !slices.ContainsFunc(b, func(y T) bool { return eq(x, y) }) {
			out = append(out, x)
		}
	}
	return out
}

// hostData draws a dataset's first contents: 400 set elements, 120 multiset
// values of multiplicity 1 to 3, or Docs.
func hostData(kind string, seed uint64) ([]uint64, [][]uint64) {
	src := prng.New(seed)
	switch kind {
	case "set":
		return distinct(src, 400, 1<<40), nil
	case "multiset":
		var out []uint64
		for _, x := range distinct(src, 120, 1<<20) {
			for range 1 + src.Intn(3) {
				out = append(out, x)
			}
		}
		return out, nil
	case "sos":
		return nil, Docs(seed)
	}
	return nil, nil
}

// Docs is the parent the docs base hosts first: 60 planted child sets of 32
// to 64 elements below 2^32, 12 of them edited.
func Docs(seed uint64) [][]uint64 {
	alice, _ := workload.PlantedSetsOfSets(seed, 60, 64, 1<<32, 12)
	return alice
}

func distinct(src *prng.Source, n int, below uint64) []uint64 {
	out := make([]uint64, 0, n)
	for len(out) < n {
		if x := 1 + src.Uint64n(below-1); !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return setutil.Canonical(out)
}

// mutate draws an update that applies: a few new elements, occurrences or
// child sets, and a few held ones removed.
func (op *Op) mutate(d *Data, src *prng.Source) {
	switch d.Kind {
	case "set":
		op.Add = distinct(src, 1+src.Intn(3), 1<<40)
		for range src.Intn(3) {
			op.Remove = append(op.Remove, d.Elems[src.Intn(len(d.Elems))])
		}
	case "multiset":
		op.Add = []uint64{d.Elems[src.Intn(len(d.Elems))], 1 + src.Uint64n(1<<20)}
		op.Remove = []uint64{d.Elems[src.Intn(len(d.Elems))]}
	case "sos":
		op.AddSets = [][]uint64{distinct(src, 3+src.Intn(6), 1<<32)}
		if len(d.Sets) > 40 {
			op.RemoveSets = [][]uint64{d.Sets[src.Intn(len(d.Sets))]}
		}
	}
}

// spread draws a broadcast update: three elements, occurrences or child sets
// in and three held ones out, so that on a grid some server owns a part of it
// but not all, all but surely.
func (op *Op) spread(d *Data, src *prng.Source) {
	switch d.Kind {
	case "set":
		op.Add = distinct(src, 3, 1<<40)
	case "multiset":
		op.Add = []uint64{d.Elems[src.Intn(len(d.Elems))], 1 + src.Uint64n(1<<20), 1 + src.Uint64n(1<<20)}
	case "sos":
		op.churn(d, src, 3)
		return
	}
	for _, i := range src.Perm(len(d.Elems))[:3] {
		op.Remove = append(op.Remove, d.Elems[i])
	}
}

// churn draws the follow run's update: n held child sets out and n new ones
// in, so that on a grid every shard's slice changes, all but surely.
func (op *Op) churn(d *Data, src *prng.Source, n int) {
	for _, i := range src.Perm(len(d.Sets))[:n] {
		op.RemoveSets = append(op.RemoveSets, d.Sets[i])
		op.AddSets = append(op.AddSets, distinct(src, 3+src.Intn(6), 1<<32))
	}
}

// badUpdates are, per kind, the mutations a server must refuse whole: only
// the bad part, so a routed one cannot land on some shards first.
var badUpdates = map[string][]func(op *Op, d *Data, src *prng.Source){
	"set": {
		func(op *Op, _ *Data, _ *prng.Source) { op.Add = []uint64{1 << 61} }, // outside the 2^60 universe
		func(op *Op, _ *Data, _ *prng.Source) { op.Name, op.Add = "nope", []uint64{1} },
	},
	"multiset": {
		func(op *Op, _ *Data, _ *prng.Source) { op.Remove = []uint64{1 << 45} }, // an occurrence not held
		func(op *Op, d *Data, _ *prng.Source) { // more copies than held
			held := len(d.Elems) - len(slices.DeleteFunc(slices.Clone(d.Elems), func(x uint64) bool { return x == d.Elems[0] }))
			op.Remove = slices.Repeat(d.Elems[:1], held+1)
		},
		func(op *Op, d *Data, _ *prng.Source) { op.Add = slices.Repeat(d.Elems[:1], 4096) }, // past the packable multiplicity
		func(op *Op, _ *Data, _ *prng.Source) { op.Add = []uint64{1 << 50} },                // past the packable value
		func(op *Op, _ *Data, _ *prng.Source) { op.Name, op.Add = "nope", []uint64{1} },
	},
	"sos": {
		func(op *Op, _ *Data, src *prng.Source) { op.RemoveSets = [][]uint64{distinct(src, 3, 1<<32)} },    // a child set not held
		func(op *Op, d *Data, src *prng.Source) { op.AddSets = [][]uint64{d.Sets[src.Intn(len(d.Sets))]} }, // one already held
		func(op *Op, _ *Data, _ *prng.Source) { op.Name, op.AddSets = "nope", [][]uint64{{1}} },
	},
}

// BobElems returns the set or multiset a reconcile step runs against d: a few
// elements or occurrences dropped and a few new ones, drawn from the seed.
func (op Op) BobElems(d *Data) []uint64 {
	src := prng.New(op.Seed)
	bob := slices.Clone(d.Elems)
	for range 1 + src.Intn(3) {
		i := src.Intn(len(bob))
		bob = slices.Delete(bob, i, i+1)
	}
	bob = append(bob, distinct(src, 1+src.Intn(3), 1<<20)...)
	slices.Sort(bob)
	return bob
}

// BobSets returns the parent a reconcile step runs against d, as its row's
// Bob says.
func (op Op) BobSets(d *Data) [][]uint64 {
	src := prng.New(op.Seed)
	bob := setutil.CloneSets(d.Sets)
	// edit adds an element to child set i or removes its first.
	edit := func(i int) {
		if src.Bool() || len(bob[i]) < 2 {
			bob[i] = setutil.Canonical(append(bob[i], src.Uint64n(1<<32)))
		} else {
			bob[i] = slices.Delete(bob[i], 0, 1)
		}
	}
	switch op.Row.Bob {
	case Rewritten:
		i := src.Intn(len(bob))
		bob[i] = distinct(src, len(bob[i]), 1<<32)
		return bob
	case Scattered:
		for i := range bob {
			edit(i)
		}
		return bob
	}
	for range 1 + src.Intn(3) {
		edit(src.Intn(len(bob)))
	}
	if src.Intn(4) == 0 {
		i := src.Intn(len(bob))
		bob = slices.Delete(bob, i, i+1)
	}
	if op.Row.Bob == Duplicated {
		bob = append(bob, bob[src.Intn(len(bob))])
	}
	return bob
}
