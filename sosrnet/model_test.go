package sosrnet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/forest"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/store"
	"sosr/internal/wire"
	"sosr/internal/worktest"
)

// TestModel runs the seeded op stream of internal/worktest against three
// deployments of one server — over net.Pipe, over TCP, and on a disk store
// that a crash abandons and Recover restores — and after every step holds
// each to the in-process library on the model's data: the same recovered
// data, difference and attempts, or the same error class; the same protocol
// Stats; the listener's bytes equal to what the sessions reported; and the
// same hosted datasets. Every success is also held to the model itself: a set,
// multiset or set of sets must be the model's contents and their exact
// difference from Bob's (worktest.Whole), a graph or a forest isomorphic to
// Alice's. A bit-flip fault flips a bit in the protocol payload of the
// session's first frame past the handshake, and the session must fail that
// frame's CRC. The first session of each kind (the follow run's row aside)
// runs again at once on its parked connection and must report the same
// NetStats, framing included. The stream's follow run must make every leg's
// client patch a Bob sketch, and the server serve a session from a patched
// live digest — except on the TCP leg, whose server keeps none with the
// payload cache off — and the store leg must crash while one serves the
// probe. A failure names the seed, the step and the leg, and the stream's
// prefix up to that step reproduces it.
//
// The kind table and the flow table are held to each other first: every
// registered kind has a base the stream hosts, and the stream updates a base
// exactly when its kind takes updates.
func TestModel(t *testing.T) {
	all := []string{"ids", "bag", "docs", "net", "soc", "tiny", "tree"}
	updated := map[string]bool{}
	for _, op := range worktest.Stream(1, worktest.Shape{Bases: all}) {
		updated[op.Base] = updated[op.Base] || op.Do == worktest.Update
	}
	for _, k := range kinds {
		hosted := false
		for base, kind := range worktest.Kinds {
			if kind != string(k.kind) {
				continue
			}
			hosted = true
			if updated[base] != (k.stage != nil) {
				t.Fatalf("the stream updates %s: %v, but kind %q takes updates: %v", base, updated[base], k.kind, k.stage != nil)
			}
		}
		if !hosted {
			t.Fatalf("kind %q is registered, but no base of the flow table hosts it", k.kind)
		}
	}
	for _, leg := range []struct {
		name  string
		tcp   bool
		disk  bool
		shape worktest.Shape
	}{
		{"pipe", false, false, worktest.Shape{Bases: all, Faults: worktest.ConnFaults}},
		{"tcp", true, false, worktest.Shape{Bases: all, Faults: worktest.ConnFaults}}, // with the payload cache off
		{"store", true, true, worktest.Shape{Bases: all, Store: true,
			Faults: append([]worktest.Fault{worktest.AppendFails, worktest.SnapshotFails}, worktest.ConnFaults...)}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			const seed = 1
			l := &modelLeg{t: t, tcp: leg.tcp, m: worktest.NewModel(), infos: map[*worktest.Data]DatasetInfo{}, graphs: map[string]*graphFixture{}, repeated: map[string]bool{}}
			l.at = fmt.Sprintf("seed %d, leg %s, before the stream", seed, leg.name)
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("failed at %s", l.at)
				}
			})
			if leg.disk {
				l.dir = t.TempDir()
			}
			l.start(nil)
			t.Cleanup(func() {
				l.c.Close()
				l.srv.Close()
				if l.served != nil {
					<-l.served
				}
			})
			for _, op := range worktest.Stream(seed, leg.shape) {
				l.at = fmt.Sprintf("seed %d, %v, leg %s", seed, op, leg.name)
				l.step(op)
			}
			if cs := l.srv.CacheStats(); leg.name == "tcp" && cs.Misses+cs.Hits+cs.Shared != 0 {
				t.Fatalf("the disabled payload cache recorded traffic: %+v", cs)
			}
			patched := l.c.metrics().patch.Value()
			if (l.servedLive > 0) != (leg.name != "tcp") || patched == 0 || (leg.disk && l.probedLive == 0) {
				t.Fatalf("seed %d, leg %s: %d sessions and %d crash probes served from a live digest, %d Bob sketches patched",
					seed, leg.name, l.servedLive, l.probedLive, patched)
			}
			for _, k := range l.kept {
				if !reflect.DeepEqual(k.got, k.want) {
					t.Fatalf("seed %d, %v, leg %s: the result changed after later sessions (it shares pooled memory)", seed, k.op, leg.name)
				}
			}
		})
	}
}

// modelLeg is one deployment under the stream.
type modelLeg struct {
	t        *testing.T
	at       string
	tcp      bool
	dir      string // the store's root; "" without one
	m        *worktest.Model
	srv      *Server
	ln       *worktest.Listener
	pipe     *pipeListener
	served   chan error
	c        *Client
	faults   worktest.Faults
	sessions worktest.Sessions
	dials    atomic.Int64
	fresh    bool            // the next session may dial: the last one failed, or a fault or a crash cut its connection
	repeat   bool            // the session repeats the last one
	repeated map[string]bool // the kinds whose first session ran again
	infos    map[*worktest.Data]DatasetInfo
	graphs   map[string]*graphFixture // by dataset name
	kept     []kept

	// Sessions of worktest.Follow, and crash probes of its hello, that the
	// server served from a live digest.
	servedLive, probedLive int
}

type kept struct {
	op        worktest.Op
	got, want worktest.Result
}

func (l *modelLeg) fatalf(format string, args ...any) {
	l.t.Helper()
	l.t.Fatalf("%s: %s", l.at, fmt.Sprintf(format, args...))
}

// start brings up the leg's server on its store, when it has one, and the
// client, which dials once for the whole stream; restore, when set, runs
// before the server serves.
func (l *modelLeg) start(restore func()) {
	l.srv = NewServer()
	l.srv.Logger = l.sessions.Logger()
	if l.tcp && l.dir == "" { // the TCP leg: payloads encoded afresh every session
		l.srv.CacheBytes = -1
	}
	if l.dir != "" {
		st, err := store.Open(l.dir, store.Options{})
		if err != nil {
			l.fatalf("%v", err)
		}
		l.srv.UseStore(&faultStore{Store: st, faults: &l.faults})
	}
	if restore != nil {
		restore()
	}
	var inner net.Listener
	if l.tcp {
		var err error
		if inner, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			l.fatalf("%v", err)
		}
	} else {
		l.pipe = newPipeListener()
		inner = l.pipe
	}
	l.ln = &worktest.Listener{Listener: inner}
	l.served = make(chan error, 1)
	go func(srv *Server, ln net.Listener) { l.served <- srv.Serve(ln) }(l.srv, l.ln)
	if l.c == nil {
		l.c = Dial("")
		l.c.Timeout = 30 * time.Second
		l.c.Obs = obs.NewRegistry()
		l.c.dial = func(ctx context.Context, _ string) (net.Conn, error) {
			l.dials.Add(1)
			var conn net.Conn
			var err error
			if l.tcp {
				var d net.Dialer
				conn, err = d.DialContext(ctx, "tcp", l.ln.Addr().String())
			} else {
				conn, err = l.pipe.dial(ctx, "")
			}
			if err != nil {
				return nil, err
			}
			return worktest.Wrap(conn, &l.faults), nil
		}
	}
	l.fresh = true
	l.dials.Store(0)
}

// faultStore refuses the write its fault arms.
type faultStore struct {
	store.Store
	faults *worktest.Faults
}

func (s *faultStore) AppendUpdate(name string, up *store.Update) (bool, error) {
	if s.faults.Fire(worktest.AppendFails) {
		return false, syscall.ENOSPC
	}
	return s.Store.AppendUpdate(name, up)
}

func (s *faultStore) SaveSnapshot(rec *store.Record) error {
	if s.faults.Fire(worktest.SnapshotFails) {
		return syscall.EIO
	}
	return s.Store.SaveSnapshot(rec)
}

func (l *modelLeg) step(op worktest.Op) {
	switch op.Do {
	case worktest.Host:
		l.m.Apply(op)
		if err := l.srv.Host(l.record(l.m.Cur(op.Base)), nil, 0); err != nil {
			l.fatalf("host: %v", err)
		}
		l.checkDatasets()
	case worktest.Update, worktest.BadUpdate:
		l.faults.Arm(op.Fault)
		err := l.update(op)
		l.faults.Arm(worktest.NoFault)
		if refused := op.Do == worktest.BadUpdate || op.Fault == worktest.AppendFails; (err != nil) != refused {
			l.fatalf("update: %v, want refused: %v", err, refused)
		}
		if op.Name == "nope" && !errors.Is(err, ErrUnknownDataset) {
			l.fatalf("update of an unknown dataset: %v", err)
		}
		l.m.Apply(op)
		l.checkDatasets()
	case worktest.Reconcile:
		l.reconcile(op)
	case worktest.Idle:
		time.Sleep(time.Millisecond)
	case worktest.Snapshot:
		l.faults.Arm(op.Fault)
		err := l.srv.SnapshotDataset(op.Name)
		l.faults.Arm(worktest.NoFault)
		if (err != nil) != (op.Fault == worktest.SnapshotFails) {
			l.fatalf("snapshot: %v", err)
		}
		l.m.Apply(op)
	case worktest.Crash:
		l.crash()
		l.m.Apply(op)
		l.checkDatasets()
	}
}

func (l *modelLeg) update(op worktest.Op) error {
	switch worktest.Kinds[op.Base] {
	case "set":
		return l.srv.UpdateSets(op.Name, op.Add, op.Remove)
	case "multiset":
		return l.srv.UpdateMultisets(op.Name, op.Add, op.Remove)
	}
	return l.srv.UpdateSetsOfSets(op.Name, op.AddSets, op.RemoveSets)
}

// reconcile runs op's row over the wire and in process and holds the two to
// each other; a step with a fault must end in an error or in the in-process
// result, and the same session without the fault must then succeed. It
// returns what the last session over the wire reported.
func (l *modelLeg) reconcile(op worktest.Op) *NetStats {
	d := l.m.Cur(op.Base)
	want := l.run(op, d, false)
	if !op.Row.EndsIn(want.err, classOf(want.err, core.ErrGaveUp)) {
		l.fatalf("in process: %v, want the row's class %v", want.err, op.Row.Fails)
	}
	if op.Fault == worktest.StallRead {
		l.c.Timeout = 50 * time.Millisecond
	}
	l.faults.Arm(op.Fault)
	finished, dials, bytes := l.sessions.Load(), l.dials.Load(), l.ln.Bytes.Load()
	live, misses := op.Row.Name == worktest.Follow.Name && l.holdsLive(op.Seed), l.srv.CacheStats().Misses
	got := l.run(op, d, true)
	if live && l.srv.CacheStats().Misses > misses {
		l.servedLive++
	}
	l.faults.Arm(worktest.NoFault)
	l.c.Timeout = 30 * time.Second
	if op.Fault != worktest.NoFault {
		// A flipped bit fails its frame's CRC, a stalled read its deadline;
		// a broken write ends in an error or, on a parked connection, a replay.
		var ne net.Error
		switch {
		case op.Fault == worktest.BitFlip && !errors.Is(got.err, wire.ErrChecksum),
			op.Fault == worktest.StallRead && !(errors.As(got.err, &ne) && ne.Timeout()):
			l.fatalf("faulted session: %v", got.err)
		case got.err == nil:
			l.same(op, got, want)
		}
		l.fresh = true
		l.settle()
		op.Fault = worktest.NoFault
		return l.reconcile(op)
	}
	l.same(op, got, want)
	if got.err != nil {
		l.fresh = true
		l.settle()
		return got.ns
	}
	if !l.fresh && l.dials.Load() != dials {
		l.fatalf("a session dialed while a parked connection was free")
	}
	l.fresh = false
	// The server reads the closing ctl/done after the client has its result;
	// once it has logged the session, the listener's count is final.
	l.sessions.Wait(l.t, finished+1)
	l.settle()
	if n := l.sessions.Load() - finished; n != 1 {
		l.fatalf("the server logged %d sessions, want 1", n)
	}
	if tcp := l.ln.Bytes.Load() - bytes; tcp != got.ns.WireIn+got.ns.WireOut {
		l.fatalf("the listener counted %d bytes, the session reported %d", tcp, got.ns.WireIn+got.ns.WireOut)
	}
	l.kept = append(l.kept, kept{op, got.res, want.res})
	// The first session of each kind runs again at once on the connection it
	// parked. A graph's or a forest's frames are one cache entry: on the pipe
	// leg each of its sessions runs again, and replays them without encoding.
	cached := !l.tcp && (d.Kind == "graph" || d.Kind == "forest")
	if l.repeat || !cached && (l.repeated[d.Kind] || op.Row.Name == worktest.Follow.Name) {
		return got.ns
	}
	l.repeated[d.Kind] = true
	cs := l.srv.CacheStats()
	l.repeat = true
	again := l.reconcile(op)
	l.repeat = false
	if *again != *got.ns {
		l.fatalf("the session again on its connection reports %+v, the first %+v", *again, *got.ns)
	}
	if now := l.srv.CacheStats(); cached && (now.Misses != cs.Misses || now.Hits+now.Shared != cs.Hits+cs.Shared+1) {
		l.fatalf("a repeated session: cache %+v after %+v, want one hit", now, cs)
	}
	return got.ns
}

// holdsLive reports whether the server keeps a live digest of the docs
// dataset under the key of the first attempt of a worktest.Follow session at
// seed. A session under that key that misses the payload cache is served
// from the digest, not encoded.
func (l *modelLeg) holdsLive(seed uint64) bool {
	r := worktest.Follow
	master := sosFamilyOf(r.Protocol).flow(r.D).attemptCoins(hashing.NewCoins(seed), 0).Master()
	l.srv.mu.Lock()
	ds := l.srv.datasets[l.m.Cur(r.Base).Name]
	l.srv.mu.Unlock()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for lk := range ds.live {
		if lk.seed == master && lk.d == r.D {
			return true
		}
	}
	return false
}

// settle waits until the server has accepted every connection dialed and
// every one of them is idle or gone.
func (l *modelLeg) settle() {
	worktest.WaitFor(l.t, "the server to settle", func() bool {
		if l.ln.Accepted.Load() != l.dials.Load() {
			return false
		}
		l.srv.mu.Lock()
		defer l.srv.mu.Unlock()
		return len(l.srv.conns) == len(l.srv.idle)
	})
}

// same holds a wire outcome to the in-process one, and a success to the
// model: the model's data and its difference from Bob's, or a graph or a
// forest isomorphic to Alice's.
func (l *modelLeg) same(op worktest.Op, got, want outcome) {
	l.t.Helper()
	if (got.err != nil) != (want.err != nil) || !slices.Equal(classOf(got.err, ErrGaveUp), classOf(want.err, core.ErrGaveUp)) {
		l.fatalf("wire error %v, in-process error %v", got.err, want.err)
	}
	if got.err != nil {
		return
	}
	if !reflect.DeepEqual(got.res, want.res) {
		l.fatalf("the wire recovered other data than the in-process run")
	}
	if ns := got.ns; ns.Protocol != want.stats || ns.WireIn+ns.WireOut != int64(ns.Protocol.TotalBytes)+ns.Overhead {
		l.fatalf("wire stats %+v, in-process %+v", *ns, want.stats)
	}
	switch d, res := l.m.Cur(op.Base), got.res; d.Kind {
	case "graph":
		if !sosr.GraphsExactlyIsomorphic(res.Data.(sosr.Graph), l.graph(d).alice) {
			l.fatalf("the recovered graph is not isomorphic to Alice's")
		}
	case "forest":
		if !sosr.ForestsIsomorphic(res.Data.(sosr.Forest), aliceForest(d)) {
			l.fatalf("the recovered forest is not isomorphic to Alice's")
		}
	default:
		if res.Attempts = 0; !reflect.DeepEqual(res, worktest.Whole(d, op)) {
			l.fatalf("the wire recovered other data than the model's and its difference from Bob's")
		}
	}
}

// classOf names the failure classes err carries; gaveUp is the give-up
// sentinel of the side err comes from.
func classOf(err, gaveUp error) []worktest.Class {
	var out []worktest.Class
	for c, s := range []error{worktest.ParentDecode: core.ErrParentDecode, worktest.ChildDecode: core.ErrChildDecode,
		worktest.Verify: core.ErrVerify, worktest.InvalidInstance: core.ErrInvalidInstance, worktest.GaveUp: gaveUp,
		worktest.SetDecode: setrecon.ErrDecode, worktest.SetVerify: setrecon.ErrVerify} {
		if s != nil && errors.Is(err, s) {
			out = append(out, worktest.Class(c))
		}
	}
	return out
}

type outcome struct {
	res   worktest.Result
	stats sosr.Stats
	ns    *NetStats // nil in process
	err   error
}

// call runs local in process or wire over the leg's client.
func call[R any](remote bool, local func() (R, error), wire func() (R, *NetStats, error)) (R, *NetStats, error) {
	if remote {
		return wire()
	}
	r, err := local()
	return r, nil, err
}

var protocols = map[string]sosr.Protocol{"auto": sosr.ProtocolAuto, "naive": sosr.ProtocolNaive, "nested": sosr.ProtocolNested,
	"cascade": sosr.ProtocolCascade, "multiround": sosr.ProtocolMultiRound}

// run reconciles op's row against d: over the wire, or in process.
func (l *modelLeg) run(op worktest.Op, d *worktest.Data, remote bool) outcome {
	ctx, r, seed := context.Background(), op.Row, op.Seed
	var o outcome
	switch d.Kind {
	case "set":
		bob, cfg := op.BobElems(d), sosr.SetConfig{Seed: seed, KnownDiff: r.D, UseCharPoly: r.CharPoly}
		res, ns, err := call(remote, func() (*sosr.SetResult, error) { return sosr.ReconcileSets(d.Elems, bob, cfg) },
			func() (*sosr.SetResult, *NetStats, error) { return l.c.Sets(ctx, op.Name, bob, cfg) })
		if o.ns, o.err = ns, err; err == nil {
			o.res, o.stats = worktest.Result{Data: res.Recovered, A: res.OnlyA, B: res.OnlyB}, res.Stats
		}
	case "multiset":
		bob := op.BobElems(d)
		var rec []uint64
		if remote {
			rec, o.ns, o.err = l.c.Multiset(ctx, op.Name, bob, r.D, seed)
		} else {
			rec, o.stats, o.err = sosr.ReconcileMultisets(d.Elems, bob, r.D, seed)
		}
		o.res = worktest.Result{Data: rec}
	case "sos":
		bob := op.BobSets(d)
		cfg := sosr.Config{Seed: seed, Protocol: protocols[r.Protocol], KnownDiff: r.D, KnownChildDiff: r.DHat,
			Replicas: r.Replicas, MaxChildSets: r.S, MaxChildSize: r.H, Validate: r.Validate}
		res, ns, err := call(remote, func() (*sosr.Result, error) { return sosr.ReconcileSetsOfSets(d.Sets, bob, cfg) },
			func() (*sosr.Result, *NetStats, error) { return l.c.SetsOfSets(ctx, op.Name, bob, cfg) })
		if o.ns, o.err = ns, err; err == nil {
			o.res, o.stats = worktest.Result{Data: res.Recovered, A: res.Added, B: res.Removed, Attempts: res.Attempts}, res.Stats
		}
	case "graph":
		g := l.graph(d)
		bob, cfg := g.bob(op.Seed), sosr.GraphConfig{Seed: seed, MaxEdits: r.D}
		switch r.Protocol {
		case "degree":
			cfg.Scheme, cfg.TopDegrees = sosr.SchemeDegreeOrdering, g.h
		case "neighborhood":
			cfg.Scheme, cfg.DegreeThreshold = sosr.SchemeDegreeNeighborhood, g.h
		default:
			cfg.Scheme = sosr.SchemePolynomial
		}
		res, ns, err := call(remote, func() (*sosr.GraphResult, error) { return sosr.ReconcileGraphs(g.alice, bob, cfg) },
			func() (*sosr.GraphResult, *NetStats, error) { return l.c.Graph(ctx, op.Name, bob, cfg) })
		if o.ns, o.err = ns, err; err == nil {
			o.res, o.stats = worktest.Result{Data: res.Recovered}, res.Stats
		}
	case "forest":
		fa := aliceForest(d)
		fb, cfg := sosr.PerturbForest(fa, 3, op.Seed), sosr.ForestConfig{Seed: seed, MaxEdits: r.D, Depth: r.Depth}
		res, ns, err := call(remote, func() (*sosr.ForestResult, error) { return sosr.ReconcileForests(fa, fb, cfg) },
			func() (*sosr.ForestResult, *NetStats, error) { return l.c.Forest(ctx, op.Name, fb, cfg) })
		if o.ns, o.err = ns, err; err == nil {
			o.res, o.stats = worktest.Result{Data: res.Recovered}, res.Stats
		}
	}
	if o.ns != nil {
		o.stats = o.ns.Protocol
	}
	return o
}

// graphFixture is a hosted graph built from its dataset's seed: Alice's graph,
// how a reconcile's seed draws Bob's, and the scheme's parameter (the top
// degrees h, or the neighborhood threshold m).
type graphFixture struct {
	alice sosr.Graph
	bob   func(seed uint64) sosr.Graph
	h     int
}

// graph builds d's graph once: a planted 400-node graph for the degree
// scheme, a 64-node graph whose neighborhoods are disjoint enough for the
// neighborhood scheme, and a 6-node graph for the polynomial one.
func (l *modelLeg) graph(d *worktest.Data) *graphFixture {
	if g := l.graphs[d.Name]; g != nil {
		return g
	}
	var g *graphFixture
	switch d.Base {
	case "net":
		base, h, err := sosr.PlantedSeparatedGraph(400, 2, 0.4, d.Seed)
		if err != nil {
			l.fatalf("planted graph: %v", err)
		}
		g = &graphFixture{sosr.PerturbGraph(base, 1, d.Seed+1), func(s uint64) sosr.Graph { return sosr.PerturbGraph(base, 1, s) }, h}
	case "soc":
		base := sosr.RandomGraph(64, 0.5, d.Seed)
		for a := uint64(1); sosr.NeighborhoodDisjointness(base, 48) < 5; a++ {
			base = sosr.RandomGraph(64, 0.5, d.Seed+a)
		}
		g = &graphFixture{sosr.PerturbGraph(base, 1, d.Seed), func(uint64) sosr.Graph { return base }, 48}
	default:
		tiny := sosr.RandomGraph(6, 0.5, d.Seed)
		g = &graphFixture{tiny, func(s uint64) sosr.Graph { return sosr.PerturbGraph(tiny, 2, s) }, 0}
	}
	l.graphs[d.Name] = g
	return g
}

// aliceForest is the forest d hosts: 120 nodes drawn from its seed.
func aliceForest(d *worktest.Data) sosr.Forest { return sosr.RandomForest(120, 0.15, d.Seed) }

// record is d as the server hosts it.
func (l *modelLeg) record(d *worktest.Data) *store.Record {
	rec := &store.Record{Name: d.Name, Kind: d.Kind, Elems: slices.Clone(d.Elems), Parents: setutil.CloneSets(d.Sets)}
	switch d.Kind {
	case "graph":
		g := l.graph(d).alice
		rec.N, rec.Edges = g.N, g.Edges
	case "forest":
		rec.Parent = aliceForest(d).Parent
	}
	return rec
}

// checkDatasets holds the server's dataset summary to the model's: each
// dataset at the model's version, with the items and content hash a server
// hosting the model's contents afresh reports.
func (l *modelLeg) checkDatasets() {
	var want []DatasetInfo
	for _, d := range l.m.All {
		di, ok := l.infos[d]
		if !ok {
			ref := NewServer()
			if err := ref.Host(l.record(d), nil, 0); err != nil {
				l.fatalf("reference host: %v", err)
			}
			di = ref.Datasets()[0]
			l.infos[d] = di
		}
		di.Version = d.Version
		want = append(want, di)
	}
	slices.SortFunc(want, func(a, b DatasetInfo) int { return cmp.Compare(a.Name, b.Name) })
	if got := l.srv.Datasets(); !reflect.DeepEqual(got, want) {
		l.fatalf("hosted datasets diverge from the model:\n got %+v\nwant %+v", got, want)
	}
}

// crash abandons the server and its store mid-stream — no Close, no final
// snapshot; the client's parked connection dies with it — and recovers a new
// server from the store's directory. The new server must hold what the model
// holds and send the same Alice payloads.
func (l *modelLeg) crash() {
	before := l.probe()
	wantReplayed := 0
	for _, d := range l.m.All {
		wantReplayed += d.WAL
	}
	old := l.srv
	l.ln.Close()
	old.mu.Lock()
	for c := range old.conns {
		c.Close()
	}
	old.mu.Unlock()
	<-l.served
	l.served = nil // a failed recovery leaves nothing serving
	l.start(func() {
		rs, err := l.srv.Recover()
		if err != nil || rs.Datasets != len(l.m.All) || rs.Replayed != wantReplayed {
			l.fatalf("Recover: %+v, %v; want %d datasets, %d replayed", rs, err, len(l.m.All), wantReplayed)
		}
	})
	for h, p := range l.probe() {
		if p != before[h] {
			l.fatalf("%+v: the recovered server sent another Alice payload than before the crash", h)
		}
	}
	l.settle()
}

// probe captures the Alice payload (its label and bytes) the server sends each
// current dataset for a fixed hello per protocol. The first is the hello of a
// worktest.Follow session at FollowCoin; when the server holds a live digest
// under its key and the probe misses the payload cache, the digest serves it.
func (l *modelLeg) probe() map[helloMsg]string {
	cur := func(base string) string { return l.m.Cur(base).Name }
	g := l.graph(l.m.Cur("net"))
	fi := forest.Measure(&forest.Forest{Parent: aliceForest(l.m.Cur("tree")).Parent})
	r := worktest.Follow
	hellos := []helloMsg{
		{Dataset: cur(r.Base), Kind: KindSetsOfSets, Seed: worktest.FollowCoin, Protocol: r.Protocol, D: r.D, S: r.S, H: r.H},
		{Dataset: cur("ids"), Kind: KindSet, Seed: 7, D: 16}, {Dataset: cur("ids"), Kind: KindSet, Seed: 7, D: 12, CharPoly: true},
		{Dataset: cur("bag"), Kind: KindMultiset, Seed: 3, D: 8},
		{Dataset: cur("net"), Kind: KindGraph, Seed: 14, Scheme: "degree", D: 2, TopH: g.h, N: g.alice.N},
		{Dataset: cur("tree"), Kind: KindForest, Seed: 53, D: 3, N: fi.N, Depth: fi.Depth, MaxChild: fi.MaxChild},
	}
	for _, p := range []string{"naive", "nested", "cascade", "multiround"} {
		hellos = append(hellos, helloMsg{Dataset: cur("docs"), Kind: KindSetsOfSets, Seed: 9, Protocol: p, D: 4})
	}
	live, misses := l.holdsLive(worktest.FollowCoin), l.srv.CacheStats().Misses
	out := map[helloMsg]string{}
	for i, h := range hellos {
		label, body := aliceProbe(l.t, l.ln.Addr().String(), h)
		l.dials.Add(1) // the listener accepts the probe's connection too
		out[h] = label + ":" + string(body)
		if i == 0 && live && l.srv.CacheStats().Misses > misses {
			l.probedLive++
		}
	}
	return out
}
