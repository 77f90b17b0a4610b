package sosrshard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/store"
	"sosr/internal/worktest"
	"sosr/sosrnet"
)

// TestModel runs the seeded op stream of internal/worktest against a 3 × 2
// grid through Coordinator and Client: hosting sent to every replica, each
// update either routed to every replica of its owning shards or broadcast
// verbatim to every server, fan-outs checked shard by shard against the
// in-process library on the shard's slices and coins and whole against the
// model, a replica of every shard killed under a fan-out, and the deployment
// moved to its next epoch under a client that still holds the last one. Every
// base must take an update by each route, and a broadcast that some server
// owns a part of but not all; the stream's follow run must make a shard serve
// a session from a patched live digest, and the client patch a Bob sketch. A
// failure names the seed, the step and the leg.
func TestModel(t *testing.T) {
	const seed = 1
	bases := []string{"ids", "bag", "docs"}
	g := newGridLeg(t)
	d := g.d
	for _, op := range worktest.Stream(seed, worktest.Shape{Bases: bases, Grid: true}) {
		g.at = fmt.Sprintf("seed %d, %v, leg grid", seed, op)
		g.step(op)
	}
	for _, base := range bases {
		if l := g.landed[base]; l[0] == 0 || l[1] == 0 || l[2] == 0 {
			t.Fatalf("seed %d, leg grid: %s took %d routed updates, %d broadcast, %d broadcast to a server owning a part but not all; want each route, and the filter met", seed, base, l[0], l[1], l[2])
		}
	}
	patched := d.client.Obs.Counter("sosr_decodecache_events_total", "", "event").With("patch").Value()
	if g.servedLive == 0 || patched == 0 {
		t.Fatalf("seed %d, leg grid: %d shard sessions served from a live digest, %d Bob sketches patched; want the follow run to reach both", seed, g.servedLive, patched)
	}
}

// gridLeg is the grid under the stream: the model, each dataset's topology
// and per-shard versions.
type gridLeg struct {
	t        testing.TB
	at       string
	d        *shardDeployment
	m        *worktest.Model
	topos    map[string]*Topology
	versions map[string][]uint64
	infos    map[infoKey]sosrnet.DatasetInfo
	// servedLive counts the shard sessions of worktest.Follow that a server
	// served from a live digest.
	servedLive int
	// landed counts each base's updates: routed, broadcast, and broadcast
	// with a server owning a part of the mutation but not all of it.
	landed map[string][3]int
}

// newGridLeg brings up the 3 × 2 grid the stream runs on; the test's cleanup
// closes it.
func newGridLeg(tb testing.TB) *gridLeg {
	d := startReplicated(tb, 3, 2)
	d.client.Obs = obs.NewRegistry()
	return &gridLeg{t: tb, d: d, m: worktest.NewModel(), topos: map[string]*Topology{},
		versions: map[string][]uint64{}, infos: map[infoKey]sosrnet.DatasetInfo{}, landed: map[string][3]int{}}
}

type infoKey struct {
	d     *worktest.Data
	shard int
}

func (g *gridLeg) fatalf(format string, args ...any) {
	g.t.Helper()
	g.t.Fatalf("%s: %s", g.at, fmt.Sprintf(format, args...))
}

func (g *gridLeg) step(op worktest.Op) {
	d := g.d
	switch op.Do {
	case worktest.Host:
		g.m.Apply(op)
		g.host(d.co, g.m.Cur(op.Base))
		g.checkDatasets()
	case worktest.Update:
		// Either way the mutation goes, the shards owning a part of it bump
		// their version and the others keep theirs.
		var parts []int
		if worktest.Kinds[op.Base] == "sos" {
			parts = lens(d.topo.SplitSets(setutil.CanonicalSets(slices.Concat(op.AddSets, op.RemoveSets))))
		} else {
			parts = lens(d.topo.SplitElems(slices.Concat(op.Add, op.Remove)))
		}
		landed := g.landed[op.Base]
		if !op.Broadcast {
			if err := update(d.co, op); err != nil {
				g.fatalf("routed update: %v", err)
			}
			landed[0]++
		} else {
			for _, group := range d.all {
				for _, srv := range group {
					if err := update(srv, op); err != nil {
						g.fatalf("broadcast update: %v", err)
					}
				}
			}
			landed[1]++
			total := len(op.Add) + len(op.Remove) + len(op.AddSets) + len(op.RemoveSets)
			if slices.ContainsFunc(parts, func(n int) bool { return n > 0 && n < total }) {
				landed[2]++
			}
		}
		g.landed[op.Base] = landed
		for i, n := range parts {
			if n > 0 {
				g.versions[op.Name][i]++
			}
		}
		g.m.Apply(op)
		g.checkDatasets()
	case worktest.BadUpdate:
		// Broadcast verbatim to every server, a refused mutation changes
		// none: its owners refuse it, and one with a value outside the kind's
		// range is refused even where nothing of it is owned.
		malformed, refused := slices.ContainsFunc(op.Add, func(x uint64) bool { return x >= 1<<48 }), 0
		for _, group := range d.all {
			for _, srv := range group {
				err := update(srv, op)
				if op.Name == "nope" && !errors.Is(err, sosrnet.ErrUnknownDataset) {
					g.fatalf("update of an unknown dataset: %v", err)
				}
				if err != nil {
					refused++
				} else if malformed {
					g.fatalf("a malformed mutation accepted where nothing of it is owned")
				}
			}
		}
		if refused == 0 {
			g.fatalf("no server refused the mutation")
		}
		g.checkDatasets()
	case worktest.Reconcile:
		g.reconcile(op, nil)
	case worktest.KillReplica:
		// Each shard's rendezvous primary for the session dies, so each fails
		// over to its other replica.
		killed := make([]int, d.topo.NumShards())
		for i := range killed {
			killed[i] = d.primary(i, op.Seed)
			d.allLn[i][killed[i]].KillAfter.Store(1)
		}
		g.reconcile(op, killed)
		for i, j := range killed {
			d.allLn[i][j].KillAfter.Store(0)
		}
	case worktest.EpochBump:
		topo := d.topoAt(g.t, d.topo.Epoch()+1)
		co, err := NewCoordinator(topo, d.all)
		if err != nil {
			g.fatalf("%v", err)
		}
		g.m.Apply(op)
		d.topo, d.co = topo, co
		for _, base := range []string{"ids", "bag", "docs"} {
			g.host(co, g.m.Cur(base))
		}
		g.checkDatasets()
		// The client still holds the last epoch: every shard refuses it,
		// reconcile after reconcile, and nothing retries behind the caller's
		// back. The caller adopts the new topology; the next fan-out lands.
		cur := g.m.Cur("ids")
		for range 2 {
			if _, _, err := d.client.Sets(context.Background(), cur.Name, cur.Elems, sosr.SetConfig{Seed: op.Seed, KnownDiff: 8}); !errors.Is(err, sosrnet.ErrStaleEpoch) || retryable(err) {
				g.fatalf("a session at the last epoch: %v, want ErrStaleEpoch", err)
			}
		}
		if err := d.client.SetTopology(topo); err != nil {
			g.fatalf("%v", err)
		}
		g.quiesce()
		op.Base, op.Name, op.Row = "ids", cur.Name, worktest.Rows[0]
		g.reconcile(op, nil)
	}
}

// updater is what takes a mutation: the coordinator, which routes it, or one
// server, which applies the part its shard owns.
type updater interface {
	UpdateSets(name string, add, remove []uint64) error
	UpdateMultisets(name string, add, remove []uint64) error
	UpdateSetsOfSets(name string, add, remove [][]uint64) error
}

// update sends op's mutation to u.
func update(u updater, op worktest.Op) error {
	switch worktest.Kinds[op.Base] {
	case "set":
		return u.UpdateSets(op.Name, op.Add, op.Remove)
	case "multiset":
		return u.UpdateMultisets(op.Name, op.Add, op.Remove)
	}
	return u.UpdateSetsOfSets(op.Name, op.AddSets, op.RemoveSets)
}

func lens[T any](parts [][]T) []int {
	out := make([]int, len(parts))
	for i, p := range parts {
		out[i] = len(p)
	}
	return out
}

// quiesce waits until the listeners and the session log have stopped moving:
// after a failed fan-out or a refused one, the servers' side of the sessions
// ends on its own time.
func (g *gridLeg) quiesce() {
	last, still := int64(-1), 0
	for still < 5 {
		time.Sleep(2 * time.Millisecond)
		n := g.d.sessions.Load()
		for _, lns := range g.d.allLn {
			for _, ln := range lns {
				n += ln.Bytes.Load()
			}
		}
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
}

// host hosts d on every replica through co.
func (g *gridLeg) host(co *Coordinator, d *worktest.Data) {
	var err error
	switch d.Kind {
	case "set":
		err = co.HostSets(d.Name, d.Elems)
	case "multiset":
		err = co.HostMultiset(d.Name, d.Elems)
	default:
		err = co.HostSetsOfSets(d.Name, d.Sets)
	}
	if err != nil {
		g.fatalf("host: %v", err)
	}
	g.topos[d.Name], g.versions[d.Name] = g.d.topo, make([]uint64, g.d.topo.NumShards())
}

// checkDatasets holds every replica's dataset summary to the model's: each
// shard's slice at that shard's version and under the dataset's topology,
// with the items and content hash an unsharded server hosting that slice
// reports. The slice is the one the shard map assigns the shard, computed
// from the model, so the server's own ownership filter is not the reference.
func (g *gridLeg) checkDatasets() {
	for i, group := range g.d.all {
		var want []sosrnet.DatasetInfo
		for _, d := range g.m.All {
			key := infoKey{d, i}
			di, ok := g.infos[key]
			if !ok {
				topo, ref := g.topos[d.Name], sosrnet.NewServer()
				rec := &store.Record{Name: d.Name, Kind: d.Kind, Elems: topo.OwnedElems(i, d.Elems), Parents: setutil.CloneSets(topo.OwnedSets(i, d.Sets))}
				if err := ref.Host(rec, nil, 0); err != nil {
					g.fatalf("reference host: %v", err)
				}
				di = ref.Datasets()[0]
				di.ShardIndex, di.ShardCount, di.ShardEpoch = i, topo.NumShards(), topo.Epoch()
				g.infos[key] = di
			}
			di.Version = g.versions[d.Name][i]
			want = append(want, di)
		}
		slices.SortFunc(want, func(a, b sosrnet.DatasetInfo) int { return cmp.Compare(a.Name, b.Name) })
		for j, srv := range group {
			if got := srv.Datasets(); !reflect.DeepEqual(got, want) {
				g.fatalf("shard %d replica %d diverges from the model:\n got %+v\nwant %+v", i, j, got, want)
			}
		}
	}
}

// reconcile runs op's row as one fan-out and holds it shard by shard to the
// in-process run over the shard's slices under the shard's coins, and whole
// to the model: the merge must be the model's contents and their exact
// difference from Bob's, by set difference, whatever the shard map does.
// killed, when set, is the replica of each shard that is dead for this
// fan-out: the result must be the same, reached by failing over.
func (g *gridLeg) reconcile(op worktest.Op, killed []int) {
	d, r := g.d, op.Row
	data := g.m.Cur(op.Base)
	topo := d.topo
	n := topo.NumShards()
	finished := d.sessions.Load()
	base := make([]int64, n)
	for i := range base {
		for _, ln := range d.allLn[i] {
			base[i] += ln.Bytes.Load()
		}
	}
	var got, want worktest.Result
	var st *Stats
	var gotErr, wantErr error
	shardStats := make([]sosr.Stats, n)
	shardAttempts := make([]int, n)
	switch data.Kind {
	case "set", "multiset":
		bob := op.BobElems(data)
		var recs, onlyA, onlyB [][]uint64
		for i := 0; i < n && wantErr == nil; i++ {
			a, b, seed := topo.OwnedElems(i, data.Elems), topo.OwnedElems(i, bob), shardSeed(op.Seed, i)
			if data.Kind == "multiset" {
				var rec []uint64
				rec, shardStats[i], wantErr = sosr.ReconcileMultisets(a, b, r.D, seed)
				recs = append(recs, rec)
				continue
			}
			res, err := sosr.ReconcileSets(setutil.Canonical(a), setutil.Canonical(b), sosr.SetConfig{Seed: seed, KnownDiff: r.D, UseCharPoly: r.CharPoly})
			if wantErr = err; err == nil {
				recs, onlyA, onlyB = append(recs, res.Recovered), append(onlyA, res.OnlyA), append(onlyB, res.OnlyB)
				shardStats[i] = res.Stats
			}
		}
		if data.Kind == "multiset" {
			want.Data = sortedConcat(recs)
			break
		}
		want = worktest.Result{Data: sortedConcat(recs), A: sortedConcat(onlyA), B: sortedConcat(onlyB)}
	default:
		bob := op.BobSets(data)
		var recs, added, removed [][]uint64
		for i := range n {
			sc := sosConfig(r, shardSeed(op.Seed, i))
			res, err := sosr.ReconcileSetsOfSets(topo.OwnedSets(i, data.Sets), topo.OwnedSets(i, bob), sc)
			// Every shard ends as the row says, but a failure that lies in one
			// child set fails only the shard holding it.
			if (err != nil || !r.Bob.Local()) && !r.EndsIn(err, classOf(err, core.ErrGaveUp)) {
				g.fatalf("shard %d in process: %v, want the row's class %v", i, err, r.Fails)
			}
			if err != nil {
				wantErr = cmp.Or(wantErr, err)
				continue
			}
			recs, added, removed = append(recs, res.Recovered...), append(added, res.Added...), append(removed, res.Removed...)
			shardStats[i], shardAttempts[i] = res.Stats, res.Attempts
			want.Attempts += res.Attempts
		}
		for _, ss := range [][][]uint64{recs, added, removed} {
			setutil.SortSets(ss)
		}
		want.Data, want.A, want.B = recs, added, removed
	}
	live, misses := g.liveShards(op)
	got, st, gotErr = g.run(op, data)
	for i, srv := range live {
		if srv != nil && srv.CacheStats().Misses > misses[i] {
			g.servedLive++
		}
	}
	if !r.EndsIn(wantErr, classOf(wantErr, core.ErrGaveUp)) {
		g.fatalf("in process: %v, want the row's class %v", wantErr, r.Fails)
	}
	if (gotErr != nil) != (wantErr != nil) || !slices.Equal(classOf(gotErr, sosrnet.ErrGaveUp), classOf(wantErr, core.ErrGaveUp)) {
		g.fatalf("fan-out error %v, in-process error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		// A replica runs the shard's coins on the shard's slice: it would fail
		// the same way, so no protocol failure is worth a failover.
		if retryable(gotErr) {
			g.fatalf("a protocol failure is retryable: %v", gotErr)
		}
		g.quiesce()
		return
	}
	if !reflect.DeepEqual(got, want) {
		g.fatalf("the fan-out recovered other data than the in-process runs over the slices")
	}
	if got.Attempts = 0; !reflect.DeepEqual(got, worktest.Whole(data, op)) {
		g.fatalf("the fan-out's merge is not the model's whole dataset and its difference from Bob's")
	}
	for i, sh := range st.Shards {
		if sh.Net.Protocol != shardStats[i] || (data.Kind == "sos" && sh.Net.Attempts != shardAttempts[i]) {
			g.fatalf("shard %d: wire stats %+v, in-process %+v", i, sh.Net, shardStats[i])
		}
	}
	checkStatsParity(g.t, st)
	d.sessions.Wait(g.t, finished+int64(n))
	if killed != nil {
		if st.Failovers < n {
			g.fatalf("%d failovers with every primary dead", st.Failovers)
		}
		for i, j := range killed {
			if sh := st.Shards[i]; sh.Attempts < 2 || sh.Replica == topo.Replicas(i)[j] {
				g.fatalf("shard %d: its primary is dead, yet %d attempts won on %s", i, sh.Attempts, sh.Replica)
			}
		}
		return
	}
	// With every replica up, each shard's first replica wins outright, so the
	// listeners moved exactly what the sessions report: per shard, its
	// protocol bytes and framing.
	if st.Failovers != 0 || st.Hedges != 0 {
		g.fatalf("%d failovers and %d hedges with every replica up", st.Failovers, st.Hedges)
	}
	for i, sh := range st.Shards {
		var tcp int64
		for _, ln := range d.allLn[i] {
			tcp += ln.Bytes.Load()
		}
		if tcp-base[i] != int64(sh.Net.Protocol.TotalBytes)+sh.Net.Overhead {
			g.fatalf("shard %d: the listeners counted %d bytes, the session reported %d + %d", i, tcp-base[i], sh.Net.Protocol.TotalBytes, sh.Net.Overhead)
		}
	}
}

// run runs op's row against data as one fan-out through the grid's client.
func (g *gridLeg) run(op worktest.Op, data *worktest.Data) (worktest.Result, *Stats, error) {
	ctx, r, c := context.Background(), op.Row, g.d.client
	switch data.Kind {
	case "multiset":
		rec, st, err := c.Multiset(ctx, op.Name, op.BobElems(data), r.D, op.Seed)
		return worktest.Result{Data: rec}, st, err
	case "set":
		res, st, err := c.Sets(ctx, op.Name, op.BobElems(data), sosr.SetConfig{Seed: op.Seed, KnownDiff: r.D, UseCharPoly: r.CharPoly})
		if err != nil {
			return worktest.Result{}, st, err
		}
		return worktest.Result{Data: res.Recovered, A: res.OnlyA, B: res.OnlyB}, st, nil
	}
	res, st, err := c.SetsOfSets(ctx, op.Name, op.BobSets(data), sosConfig(r, op.Seed))
	if err != nil {
		return worktest.Result{}, st, err
	}
	return worktest.Result{Data: res.Recovered, A: res.Added, B: res.Removed, Attempts: res.Attempts}, st, nil
}

// sosConfig is r's sets-of-sets configuration under seed.
func sosConfig(r worktest.Row, seed uint64) sosr.Config {
	return sosr.Config{Seed: seed, Protocol: protocols[r.Protocol], KnownDiff: r.D, KnownChildDiff: r.DHat,
		Replicas: r.Replicas, MaxChildSets: r.S, MaxChildSize: r.H, Validate: r.Validate}
}

// liveShards returns, per shard, the replica that keeps a live digest of op's
// dataset under the key of the first attempt of a worktest.Follow session at
// op's coins, or nil, and each one's payload-cache misses: a session that
// then misses the cache is served from the digest, not encoded. sosrnet keeps
// its digests unexported, so this reads them by reflection, between
// fan-outs, as worktest.PinsNothing reads a workspace.
func (g *gridLeg) liveShards(op worktest.Op) ([]*sosrnet.Server, []uint64) {
	live, misses := make([]*sosrnet.Server, len(g.d.all)), make([]uint64, len(g.d.all))
	if op.Row.Name != worktest.Follow.Name {
		return live, misses
	}
	for i, group := range g.d.all {
		// A known-d one-round row's attempt k runs under the shard's coins'
		// "replica" sub-coins.
		master := hashing.NewCoins(shardSeed(op.Seed, i)).Sub("replica", 0).Master()
		for _, srv := range group {
			ds := reflect.ValueOf(srv).Elem().FieldByName("datasets").MapIndex(reflect.ValueOf(op.Name))
			if !ds.IsValid() {
				continue
			}
			digests := ds.Elem().FieldByName("live")
			for _, k := range digests.MapKeys() {
				if k.FieldByName("seed").Uint() == master && k.FieldByName("d").Int() == int64(op.Row.D) {
					live[i], misses[i] = srv, srv.CacheStats().Misses
				}
			}
		}
	}
	return live, misses
}

func sortedConcat(parts [][]uint64) []uint64 {
	out := slices.Concat(parts...)
	slices.Sort(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

var protocols = map[string]sosr.Protocol{"auto": sosr.ProtocolAuto, "naive": sosr.ProtocolNaive, "nested": sosr.ProtocolNested,
	"cascade": sosr.ProtocolCascade, "multiround": sosr.ProtocolMultiRound}

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
