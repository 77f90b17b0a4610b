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
)

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
	Fails    bool // the row fails by construction, in its error class
}

// Rows is the flow table: every kind, every protocol with a known and an
// unknown bound, every bound left negative, and one row per error class.
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
	{Name: "sos/shape+validate", Base: "docs", Protocol: "cascade", D: 24, S: 96, H: 12, Validate: true},
	{Name: "sos/d=-1", Base: "docs", Protocol: "cascade", D: -1},
	{Name: "sos/dhat=-1", Base: "docs", Protocol: "nested", D: 24, DHat: -1},
	{Name: "sos/replicas=-1", Base: "docs", Protocol: "cascade", D: 24, Replicas: -1},
	{Name: "sos/s=-1", Base: "docs", Protocol: "cascade", D: 24, S: -1},
	{Name: "sos/h=-1", Base: "docs", Protocol: "cascade", D: 24, H: -1},
	{Name: "sos/parent-decode", Base: "docs", Protocol: "cascade", D: 1, Replicas: 1, Fails: true},
	{Name: "sos/gave-up", Base: "docs", Protocol: "cascade", D: 1, Replicas: 2, Fails: true},
	{Name: "sos/child-decode", Base: "docs", Protocol: "cascade", D: 2, DHat: 24, Replicas: 1, Bob: Rewritten, Fails: true},
	{Name: "sos/verify", Base: "docs", Protocol: "naive", D: 24, Bob: Duplicated, Fails: true},
	{Name: "sos/invalid-instance", Base: "docs", Protocol: "cascade", D: 24, H: 4, Fails: true},
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
}

func (op Op) String() string {
	s := fmt.Sprintf("step %d: %s %s seed=%d", op.Step, op.Do, op.Name, op.Seed)
	if op.Do == Reconcile || op.Do == KillReplica {
		s += " row=" + op.Row.Name
	}
	if op.Fault != NoFault {
		s += " fault=" + op.Fault.String()
	}
	return s
}

// Shape is what a deployment takes: the datasets it hosts and the ops and
// faults beyond host, update, reconcile and idle that apply to it.
type Shape struct {
	Bases  []string
	Faults []Fault
	Store  bool // Snapshot and Crash
	Grid   bool // KillReplica and EpochBump
}

// Steps is the length of a stream; coins is how many session seeds it draws
// from.
const Steps, coins = 300, 16

// Stream is the op list one seed gives a shape. Every base is hosted first;
// then every row of the flow table for the shape's bases, every fault, every
// kind of refused mutation and every op the shape takes appear at least once,
// shuffled among random draws, up to Steps. Under -race or -short the stream
// is that deck alone: every op once.
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
		for v := range badUpdates[Kinds[base]] {
			add(&deck, Op{Do: BadUpdate, Base: base, Seed: uint64(v)})
			add(&draws, Op{Do: BadUpdate, Base: base, Seed: uint64(v)})
		}
		for range 4 {
			add(&draws, Op{Do: Update, Base: base})
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
	return materialize(ops, src, sh.Bases)
}

// materialize fills every op in against a running model: the hosted names,
// the seeds, the mutations, the rows of reconciles drawn with a fault.
func materialize(ops []Op, src *prng.Source, bases []string) []Op {
	m := NewModel()
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
			op.mutate(d, src)
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
		if slices.Contains(bases, row.Base) && !row.Fails && row.Protocol != "neighborhood" {
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

// hostData draws a dataset's first contents: 400 set elements, 120 multiset
// values of multiplicity 1 to 3, or a planted parent of 60 child sets.
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
		alice, _ := workload.PlantedSetsOfSets(seed, 60, 8, 1<<32, 12)
		return nil, alice
	}
	return nil, nil
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
	},
	"sos": {
		func(op *Op, _ *Data, src *prng.Source) { op.RemoveSets = [][]uint64{distinct(src, 3, 1<<32)} },    // a child set not held
		func(op *Op, d *Data, src *prng.Source) { op.AddSets = [][]uint64{d.Sets[src.Intn(len(d.Sets))]} }, // one already held
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
	if op.Row.Bob == Rewritten {
		i := src.Intn(len(bob))
		bob[i] = distinct(src, len(bob[i]), 1<<32)
		return bob
	}
	for range 1 + src.Intn(3) {
		i := src.Intn(len(bob))
		if src.Bool() || len(bob[i]) < 2 {
			bob[i] = setutil.Canonical(append(bob[i], src.Uint64n(1<<32)))
		} else {
			bob[i] = slices.Delete(bob[i], 0, 1)
		}
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
