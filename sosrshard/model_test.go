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
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/store"
	"sosr/internal/worktest"
	"sosr/sosrnet"
)

// TestModel runs the seeded op stream of internal/worktest against a 3 × 2
// grid through Coordinator and Client: hosting and updates routed to every
// replica of their owning shards, fan-outs checked shard by shard against the
// in-process library on the shard's slices and coins, a replica of every shard
// killed under a fan-out, and the deployment moved to its next epoch under a
// client that still holds the last one. A failure names the seed, the step
// and the leg.
func TestModel(t *testing.T) {
	const seed = 1
	d := startReplicated(t, 3, 2)
	g := &gridLeg{t: t, d: d, m: worktest.NewModel(), topos: map[string]*Topology{},
		versions: map[string][]uint64{}, infos: map[infoKey]sosrnet.DatasetInfo{}}
	for _, op := range worktest.Stream(seed, worktest.Shape{Bases: []string{"ids", "bag", "docs"}, Grid: true}) {
		g.at = fmt.Sprintf("seed %d, %v, leg grid", seed, op)
		g.step(op)
	}
}

// gridLeg is the grid under the stream: the model, each dataset's topology
// and per-shard versions.
type gridLeg struct {
	t        *testing.T
	at       string
	d        *shardDeployment
	m        *worktest.Model
	topos    map[string]*Topology
	versions map[string][]uint64
	infos    map[infoKey]sosrnet.DatasetInfo
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
		// The shards owning a part of the mutation bump their version.
		var parts []int
		var err error
		switch worktest.Kinds[op.Base] {
		case "set":
			parts, err = lens(d.topo.SplitElems(slices.Concat(op.Add, op.Remove))), d.co.UpdateSets(op.Name, op.Add, op.Remove)
		case "multiset":
			parts, err = lens(d.topo.SplitElems(slices.Concat(op.Add, op.Remove))), d.co.UpdateMultisets(op.Name, op.Add, op.Remove)
		default:
			parts = lens(d.topo.SplitSets(setutil.CanonicalSets(slices.Concat(op.AddSets, op.RemoveSets))))
			err = d.co.UpdateSetsOfSets(op.Name, op.AddSets, op.RemoveSets)
		}
		if err != nil {
			g.fatalf("update: %v", err)
		}
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
				var err error
				switch worktest.Kinds[op.Base] {
				case "set":
					err = srv.UpdateSets(op.Name, op.Add, op.Remove)
				case "multiset":
					err = srv.UpdateMultisets(op.Name, op.Add, op.Remove)
				default:
					err = srv.UpdateSetsOfSets(op.Name, op.AddSets, op.RemoveSets)
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
		lists := make([][]string, d.topo.NumShards())
		for i := range lists {
			lists[i] = d.topo.Replicas(i)
		}
		topo, err := NewTopology(d.topo.Epoch()+1, lists)
		if err != nil {
			g.fatalf("%v", err)
		}
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
// shard's slice at that shard's version, with the items and content hash a
// server hosting the slice afresh reports.
func (g *gridLeg) checkDatasets() {
	for i, group := range g.d.all {
		var want []sosrnet.DatasetInfo
		for _, d := range g.m.All {
			key := infoKey{d, i}
			di, ok := g.infos[key]
			if !ok {
				ref := sosrnet.NewServer()
				if err := ref.Host(&store.Record{Name: d.Name, Kind: d.Kind, Elems: slices.Clone(d.Elems), Parents: setutil.CloneSets(d.Sets)}, g.topos[d.Name], i); err != nil {
					g.fatalf("reference host: %v", err)
				}
				di = ref.Datasets()[0]
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

// fanResult is a merged fan-out result: the data, the two sides of the
// difference, and the attempts.
type fanResult struct {
	Data, A, B any
	Attempts   int
}

// reconcile runs op's row as one fan-out and holds it shard by shard to the
// in-process run over the shard's slices under the shard's coins. killed,
// when set, is the replica of each shard that is dead for this fan-out: the
// result must be the same, reached by failing over.
func (g *gridLeg) reconcile(op worktest.Op, killed []int) {
	d, r, ctx := g.d, op.Row, context.Background()
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
	var got, want fanResult
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
			var rec []uint64
			rec, st, gotErr = d.client.Multiset(ctx, op.Name, bob, r.D, op.Seed)
			got.Data, want.Data = rec, sortedConcat(recs)
			break
		}
		res, s, err := d.client.Sets(ctx, op.Name, bob, sosr.SetConfig{Seed: op.Seed, KnownDiff: r.D, UseCharPoly: r.CharPoly})
		if st, gotErr = s, err; err == nil {
			got = fanResult{res.Recovered, res.OnlyA, res.OnlyB, 0}
		}
		want = fanResult{sortedConcat(recs), sortedConcat(onlyA), sortedConcat(onlyB), 0}
	default:
		bob := op.BobSets(data)
		cfg := sosr.Config{Protocol: protocols[r.Protocol], KnownDiff: r.D, KnownChildDiff: r.DHat,
			Replicas: r.Replicas, MaxChildSets: r.S, MaxChildSize: r.H, Validate: r.Validate}
		var recs, added, removed [][]uint64
		for i := 0; i < n && wantErr == nil; i++ {
			sc := cfg
			sc.Seed = shardSeed(op.Seed, i)
			res, err := sosr.ReconcileSetsOfSets(topo.OwnedSets(i, data.Sets), topo.OwnedSets(i, bob), sc)
			if wantErr = err; err == nil {
				recs, added, removed = append(recs, res.Recovered...), append(added, res.Added...), append(removed, res.Removed...)
				shardStats[i], shardAttempts[i] = res.Stats, res.Attempts
				want.Attempts += res.Attempts
			}
		}
		for _, ss := range [][][]uint64{recs, added, removed} {
			setutil.SortSets(ss)
		}
		want.Data, want.A, want.B = recs, added, removed
		cfg.Seed = op.Seed
		res, s, err := d.client.SetsOfSets(ctx, op.Name, bob, cfg)
		if st, gotErr = s, err; err == nil {
			got = fanResult{res.Recovered, res.Added, res.Removed, res.Attempts}
		}
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
	// Every shard's first replica won outright, so the listeners moved exactly
	// what the sessions report: per shard, its protocol bytes and framing.
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

// classOf names the protocol failure classes err carries; gaveUp is the
// give-up sentinel of the side err comes from.
func classOf(err, gaveUp error) []int {
	var out []int
	for i, s := range []error{core.ErrParentDecode, core.ErrChildDecode, core.ErrVerify, core.ErrInvalidInstance, gaveUp, setrecon.ErrDecode, setrecon.ErrVerify} {
		if errors.Is(err, s) {
			out = append(out, i)
		}
	}
	return out
}
