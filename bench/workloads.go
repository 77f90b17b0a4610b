package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"sosr"
	"sosr/internal/enccache"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/store"
	"sosr/internal/workload"
	"sosr/sosrnet"
	"sosr/sosrshard"
)

// workloads.go builds the four workloads. Each set-up returns an instance:
// servers listening on loopback TCP, hosted data, warmed caches, and an op
// function that one closed-loop client calls with its next op index. An op
// times the calls a user would wait for and verifies the result after the
// clock has stopped.

const verifySeed = 0x76657269667921 // salts the content hashes ops are checked with

// Leg groups of a cold_kinds_tcp cycle, by the package that does the work.
const (
	grpSetrecon = iota
	grpCore
	grpGraphrecon
	grpForest
	numGroups
)

// opOutcome is what one op reports back to the measuring loop.
type opOutcome struct {
	latency  time.Duration            // on the clock: what the client waited for
	update   time.Duration            // churn_sos_disk: the write before the reconcile
	legs     [numGroups]time.Duration // cold_kinds_tcp: on-clock time per leg group
	wire     int64                    // connection bytes, both directions, framing and handshake included
	overhead int64                    // framing plus control frames
	frames   int                      // protocol frames plus the control frames of each session
	rounds   int
	shardTry int // sosrshard: sessions opened across shards
	retries  int // attempts that failed and were repeated with fresh coins
	diff     int // planted element differences this op reconciled
	failed   bool
	wrong    bool // a session reported success but returned the wrong content
	err      error
	trace    obs.TraceID // traced round only
}

// usage is the communication of one successful attempt.
type usage struct {
	wire, overhead           int64
	frames, rounds, shardTry int
}

// netUsage reads a session's accounting; nil (a failed session) is empty.
func netUsage(ns *sosrnet.NetStats) usage {
	if ns == nil {
		return usage{}
	}
	return usage{
		wire: ns.WireIn + ns.WireOut, overhead: ns.Overhead, rounds: ns.Protocol.Rounds,
		// hello, accept and done frame every session; each further attempt
		// of a replicated run costs one ctl/retry.
		frames: ns.Protocol.Messages + 3 + max(ns.Attempts-1, 0),
	}
}

// sessionFn runs one reconcile as the given client under the given
// public-coin seed. verify compares what came back with the server's data
// and runs off the clock.
type sessionFn func(ctx context.Context, client int, seed uint64) (u usage, verify func() bool, err error)

// runSession times fn, verifies its result, and repeats a failed attempt
// with fresh coins up to legTries times: the protocols are randomized and a
// caller retries a decode failure. The wasted attempts stay on the clock.
func runSession(ctx context.Context, out *opOutcome, client int, seed uint64, fn sessionFn) time.Duration {
	var onClock time.Duration
	for attempt := 0; attempt < legTries; attempt++ {
		t0 := time.Now()
		u, verify, err := fn(ctx, client, seed+uint64(attempt))
		onClock += time.Since(t0)
		if err == nil {
			out.wire += u.wire
			out.overhead += u.overhead
			out.frames += u.frames
			out.rounds += u.rounds
			out.shardTry += u.shardTry
			out.err = nil
			if !verify() {
				out.wrong = true
			}
			return onClock
		}
		out.err = err
		out.retries++
	}
	out.failed = true
	return onClock
}

// opSeed derives the coins of one session from the run seed and the op's
// coordinates, so a run is reproducible op by op.
func opSeed(seed uint64, workload string, client, idx, leg int) uint64 {
	h := hashing.HashBytes(seed, []byte(workload))
	h = prng.Mix64(h ^ uint64(client+1)*0x9E3779B97F4A7C15)
	h = prng.Mix64(h ^ uint64(idx+1)*0xC2B2AE3D27D4EB4F)
	return prng.Mix64(h^uint64(leg+1)*0x165667B19E3779F9) &^ 3 // room for legTries retries
}

// instance is one set-up workload.
type instance struct {
	clients int
	op      func(ctx context.Context, client, idx int) opOutcome
	warmOps int
	// cacheStats sums the servers' payload caches and the clients' sketch caches.
	cacheStats func() (server, client enccache.Stats)
	registries []*obs.Registry // server registries
	// layer adds the per-layer metrics only this workload can measure; it
	// runs after the rounds, off every clock.
	layer func(ctx context.Context, m map[string]float64) error
	stop  []func()
}

func (in *instance) close() {
	for i := len(in.stop) - 1; i >= 0; i-- {
		in.stop[i]()
	}
}

// serve starts srv on a fresh loopback port and registers its shutdown.
func (in *instance) serve(srv *sosrnet.Server) (string, error) {
	return in.serveAt(srv, 0)
}

// serveAt is serve on a chosen port, falling back to higher ones while the
// port is taken. A shard's address is its identity: ownership and per-shard
// coins hash it, so the fan-out workload needs the same addresses every run
// for its byte counts to repeat.
func (in *instance) serveAt(srv *sosrnet.Server, port int) (string, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	for try := 1; err != nil && port != 0 && try < 16; try++ {
		ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port+16*try))
	}
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns nil after Close; a listener error ends the workload through failed ops
	}()
	in.stop = append(in.stop, func() {
		_ = srv.Close()
		<-done
	})
	return ln.Addr().String(), nil
}

func sumStats(a, b enccache.Stats) enccache.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Shared += b.Shared
	a.Evictions += b.Evictions
	a.Entries += b.Entries
	a.Bytes += b.Bytes
	return a
}

func canonicalSets(parent [][]uint64) [][]uint64 {
	out := make([][]uint64, len(parent))
	for i, cs := range parent {
		out[i] = setutil.Canonical(cs)
	}
	return out
}

// setupFn builds a workload from the run seed. dir is scratch space inside
// the output directory; tracer is nil except for the traced round.
type setupFn func(seed uint64, dir string, tracer *obs.Tracer) (*instance, error)

var setups = map[string]setupFn{
	"hot_sos_tcp":      setupHot,
	"cold_kinds_tcp":   setupCold,
	"churn_sos_disk":   setupChurn,
	"shard_sos_fanout": setupShard,
}

// ---- hot_sos_tcp ----

func setupHot(seed uint64, _ string, tracer *obs.Tracer) (*instance, error) {
	in := &instance{clients: numClients, warmOps: 3}
	alice, bob := workload.PlantedSetsOfSets(seed, 200, 10, 1<<32, 16)
	want := setutil.HashSetOfSets(verifySeed, canonicalSets(alice))
	srv := sosrnet.NewServer()
	srv.Trace = tracer
	if err := srv.HostSetsOfSets("docs", alice); err != nil {
		return nil, err
	}
	addr, err := in.serve(srv)
	if err != nil {
		return nil, err
	}
	cfg := sosr.Config{Protocol: sosr.ProtocolCascade, KnownDiff: 32}
	fixed := opSeed(seed, "hot_sos_tcp", 0, 0, 0)
	clients := make([]*sosrnet.Client, in.clients)
	for i := range clients {
		clients[i] = sosrnet.Dial(addr)
		clients[i].Trace = tracer
	}
	in.op = func(ctx context.Context, client, _ int) opOutcome {
		out := opOutcome{diff: 16}
		root := tracer.StartRoot("bench/op")
		ctx = obs.ContextWithSpan(ctx, root)
		out.latency = runSession(ctx, &out, client, fixed, func(ctx context.Context, client int, s uint64) (usage, func() bool, error) {
			c := cfg
			c.Seed = s
			res, ns, err := clients[client].SetsOfSets(ctx, "docs", bob, c)
			return netUsage(ns), func() bool { return setutil.HashSetOfSets(verifySeed, res.Recovered) == want }, err
		})
		root.Finish()
		out.trace = root.TraceID()
		return out
	}
	in.registries = []*obs.Registry{srv.Registry()}
	in.cacheStats = func() (enccache.Stats, enccache.Stats) {
		var cs enccache.Stats
		for _, c := range clients {
			cs = sumStats(cs, c.CacheStats())
		}
		return srv.CacheStats(), cs
	}
	return in, nil
}

// ---- cold_kinds_tcp ----

// coldLeg is one session of the cycle.
type coldLeg struct {
	group int
	diff  int
	// before runs off the clock ahead of the session (the char-poly leg
	// rotates one element so the seed-independent payload cache misses).
	before func(client, idx int) error
	run    sessionFn
}

// distinctElems draws n distinct elements below limit that used does not hold.
func distinctElems(src *prng.Source, n int, limit uint64, used map[uint64]bool) []uint64 {
	out := make([]uint64, 0, n)
	for len(out) < n {
		x := src.Uint64n(limit)
		if !used[x] {
			used[x] = true
			out = append(out, x)
		}
	}
	return out
}

// plantedSets returns canonical sets of n elements each that differ in d
// elements: d/2 only Alice holds, d/2 only Bob holds.
func plantedSets(src *prng.Source, n, d int, limit uint64) (alice, bob, aliceOnly []uint64) {
	used := map[uint64]bool{}
	common := distinctElems(src, n-d/2, limit, used)
	aliceOnly = distinctElems(src, d/2, limit, used)
	bobOnly := distinctElems(src, d/2, limit, used)
	alice = setutil.Canonical(append(setutil.Clone(common), aliceOnly...))
	bob = setutil.Canonical(append(setutil.Clone(common), bobOnly...))
	return alice, bob, aliceOnly
}

// coldData is every input of the cycle, generated once from the seed. The
// probes build the same shapes to time the layers in-process.
type coldData struct {
	setA, setB           []uint64 // n=20000, d=32
	polyA, polyB, polyAO []uint64 // n=2000, d=16; polyAO are the elements only Alice holds
	multiA, multiB       []uint64 // multisets, 8 occurrence edits
	sosA, sosB           [][]uint64
	degA, degB           sosr.Graph
	degH                 int
	nbrA, nbrB           sosr.Graph
	forA, forB           sosr.Forest
}

const (
	nbrN, nbrM  = 128, 96 // the degree-neighbourhood instance of sosrnet/net_test.go
	forestSigma = 16      // depth bound of the forest leg; RandomForest(600, 0.2) is 10 to 14 deep
	polyLimit   = 1 << 59 // planted char-poly elements stay below; rotated ones come from above
)

func genCold(seed uint64) (*coldData, error) {
	src := prng.New(seed ^ 0xc01d)
	d := &coldData{}
	d.setA, d.setB, _ = plantedSets(src, 20000, 32, 1<<60)
	d.polyA, d.polyB, d.polyAO = plantedSets(src, 2000, 16, polyLimit)

	used := map[uint64]bool{}
	for _, x := range distinctElems(src, 1500, 1<<40, used) {
		for k := 1 + src.Intn(3); k > 0; k-- {
			d.multiA = append(d.multiA, x)
		}
	}
	sort.Slice(d.multiA, func(i, j int) bool { return d.multiA[i] < d.multiA[j] })
	// Bob lacks one occurrence of four elements and four whole elements.
	d.multiB = setutil.Clone(d.multiA)
	for e := 0; e < 4; e++ {
		i := src.Intn(len(d.multiB))
		d.multiB = append(d.multiB[:i], d.multiB[i+1:]...)
	}
	d.multiA = append(d.multiA, distinctElems(src, 4, 1<<40, used)...)
	sort.Slice(d.multiA, func(i, j int) bool { return d.multiA[i] < d.multiA[j] })

	d.sosA, d.sosB = workload.PlantedSetsOfSets(src.Uint64(), 200, 10, 1<<32, 16)

	var err error
	for try := 0; ; try++ {
		var base sosr.Graph
		base, d.degH, err = sosr.PlantedSeparatedGraph(480, 2, 0.4, src.Uint64())
		if err == nil {
			d.degA = sosr.PerturbGraph(base, 1, src.Uint64())
			d.degB = sosr.PerturbGraph(base, 1, src.Uint64())
			break
		}
		if try == 8 {
			return nil, fmt.Errorf("planting a separated graph: %w", err)
		}
	}
	for try := 0; ; try++ {
		base := sosr.RandomGraph(nbrN, 0.5, src.Uint64())
		if sosr.NeighborhoodDisjointness(base, nbrM) >= 9 {
			d.nbrA, d.nbrB = sosr.PerturbGraph(base, 1, src.Uint64()), base
			break
		}
		if try == 40 {
			return nil, errors.New("no neighbourhood-disjoint G(128, 0.5) found")
		}
	}
	// The forest session's budget, and with it four fifths of the cycle's
	// bytes, grows with the depth bound σ. Pinning σ keeps the bytes of two
	// seeds comparable; a forest too deep for it is drawn again.
	for {
		d.forA = sosr.RandomForest(600, 0.2, src.Uint64())
		d.forB = sosr.PerturbForest(d.forA, 3, src.Uint64())
		if max(d.forA.Depth(), d.forB.Depth()) < forestSigma {
			return d, nil
		}
	}
}

func setupCold(seed uint64, _ string, tracer *obs.Tracer) (*instance, error) {
	in := &instance{clients: numClients, warmOps: 1}
	d, err := genCold(seed)
	if err != nil {
		return nil, err
	}
	srv := sosrnet.NewServer()
	srv.Trace = tracer
	// The char-poly payload cache ignores the seed, so each client owns a
	// copy of that dataset and swaps one Alice-only element before its leg.
	polyA := make([][]uint64, in.clients)
	for c := range polyA {
		polyA[c] = setutil.Clone(d.polyA)
		if err := srv.HostSets(fmt.Sprintf("poly-%d", c), polyA[c]); err != nil {
			return nil, err
		}
	}
	host := errors.Join(
		srv.HostSets("set", d.setA),
		srv.HostMultiset("multi", d.multiA),
		srv.HostSetsOfSets("sos", d.sosA),
		srv.HostGraph("degree", d.degA),
		srv.HostGraph("nbr", d.nbrA),
		srv.HostForest("forest", d.forA),
	)
	if host != nil {
		return nil, host
	}
	addr, err := in.serve(srv)
	if err != nil {
		return nil, err
	}
	clients := make([]*sosrnet.Client, in.clients)
	for i := range clients {
		clients[i] = sosrnet.Dial(addr)
		clients[i].Trace = tracer
		// Fresh coins make every sketch a new cache entry. A small cache is
		// full after two seconds, so the heap the run ends with does not
		// depend on how many ops the timed windows happened to fit. (The
		// server's default 64 MiB fills as fast: a forest payload is ~1 MB.)
		clients[i].CacheBytes = 4 << 20
	}

	setHash := setutil.Hash(verifySeed, d.setA)
	multiHash := hashing.HashUint64s(verifySeed, d.multiA)
	sosHash := setutil.HashSetOfSets(verifySeed, canonicalSets(d.sosA))
	sets := func(name func(client int) string, bob []uint64, cfg sosr.SetConfig, want func(client int) uint64) sessionFn {
		return func(ctx context.Context, client int, seed uint64) (usage, func() bool, error) {
			c := cfg // the closure serves both clients at once
			c.Seed = seed
			res, ns, err := clients[client].Sets(ctx, name(client), bob, c)
			return netUsage(ns), func() bool { return setutil.Hash(verifySeed, res.Recovered) == want(client) }, err
		}
	}
	sos := func(proto sosr.Protocol, known int) sessionFn {
		return func(ctx context.Context, client int, seed uint64) (usage, func() bool, error) {
			res, ns, err := clients[client].SetsOfSets(ctx, "sos", d.sosB, sosr.Config{Seed: seed, Protocol: proto, KnownDiff: known})
			return netUsage(ns), func() bool { return setutil.HashSetOfSets(verifySeed, res.Recovered) == sosHash }, err
		}
	}
	graph := func(name string, alice, bob sosr.Graph, cfg sosr.GraphConfig) sessionFn {
		return func(ctx context.Context, client int, seed uint64) (usage, func() bool, error) {
			c := cfg
			c.Seed = seed
			res, ns, err := clients[client].Graph(ctx, name, bob, c)
			return netUsage(ns), func() bool { return sosr.GraphsExactlyIsomorphic(res.Recovered, alice) }, err
		}
	}
	// rotatePoly swaps the element the previous cycle added for a new one:
	// Alice still differs from Bob in exactly 16 elements. Op indexes run on
	// from the warm-up, so every cycle has a predecessor to take over from.
	polyName := func(client int) string { return fmt.Sprintf("poly-%d", client) }
	rotatePoly := func(client, idx int) error {
		old := d.polyAO[0]
		if idx > 0 {
			old = polyLimit + uint64(client)<<40 + uint64(idx-1)
		}
		fresh := polyLimit + uint64(client)<<40 + uint64(idx)
		polyA[client] = setutil.ApplyDiff(polyA[client], []uint64{fresh}, []uint64{old})
		return srv.UpdateSets(polyName(client), []uint64{fresh}, []uint64{old})
	}
	shared := func(name string) func(int) string { return func(int) string { return name } }
	legs := []coldLeg{
		{group: grpSetrecon, diff: 32, run: sets(shared("set"), d.setB, sosr.SetConfig{KnownDiff: 32}, func(int) uint64 { return setHash })},
		{group: grpSetrecon, diff: 16, before: rotatePoly,
			run: sets(polyName, d.polyB, sosr.SetConfig{KnownDiff: 16, UseCharPoly: true}, func(c int) uint64 { return setutil.Hash(verifySeed, polyA[c]) })},
		{group: grpSetrecon, diff: 32, run: sets(shared("set"), d.setB, sosr.SetConfig{}, func(int) uint64 { return setHash })},
		{group: grpSetrecon, diff: 8, run: func(ctx context.Context, client int, seed uint64) (usage, func() bool, error) {
			rec, ns, err := clients[client].Multiset(ctx, "multi", d.multiB, 16, seed)
			return netUsage(ns), func() bool { return hashing.HashUint64s(verifySeed, rec) == multiHash }, err
		}},
		{group: grpCore, diff: 16, run: sos(sosr.ProtocolNaive, 16)},
		{group: grpCore, diff: 16, run: sos(sosr.ProtocolNested, 16)},
		{group: grpCore, diff: 16, run: sos(sosr.ProtocolCascade, 16)},
		{group: grpCore, diff: 16, run: sos(sosr.ProtocolMultiRound, 0)},
		{group: grpGraphrecon, diff: 2, run: graph("degree", d.degA, d.degB,
			sosr.GraphConfig{Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: d.degH})},
		{group: grpForest, diff: 3, run: func(ctx context.Context, client int, seed uint64) (usage, func() bool, error) {
			res, ns, err := clients[client].Forest(ctx, "forest", d.forB, sosr.ForestConfig{Seed: seed, MaxEdits: 3, Depth: forestSigma})
			return netUsage(ns), func() bool { return sosr.ForestsIsomorphic(res.Recovered, d.forA) }, err
		}},
	}
	in.op = func(ctx context.Context, client, idx int) opOutcome {
		var out opOutcome
		root := tracer.StartRoot("bench/op")
		ctx = obs.ContextWithSpan(ctx, root)
		for l, leg := range legs {
			if leg.before != nil {
				if err := leg.before(client, idx); err != nil {
					out.failed, out.err = true, err
					break
				}
			}
			out.diff += leg.diff
			t := runSession(ctx, &out, client, opSeed(seed, "cold_kinds_tcp", client, idx, l), leg.run)
			out.legs[leg.group] += t
			out.latency += t
		}
		root.Finish()
		out.trace = root.TraceID()
		return out
	}

	// The degree-neighbourhood scheme costs four times the rest of the cycle
	// together (about 190 ms a session), so it stays out of the timed op,
	// where it would drown every other leg. It is still served and verified
	// over TCP in every set-up, and timed on its own as a layer metric.
	nbr := graph("nbr", d.nbrA, d.nbrB, sosr.GraphConfig{Scheme: sosr.SchemeDegreeNeighborhood, MaxEdits: 1, DegreeThreshold: nbrM})
	nbrSession := func(ctx context.Context, k int) (time.Duration, error) {
		var out opOutcome
		t := runSession(ctx, &out, 0, opSeed(seed, "cold_kinds_tcp/nbr", 0, k, 0), nbr)
		if out.failed || out.wrong {
			return 0, fmt.Errorf("degree-neighbourhood session failed (wrong=%v): %v", out.wrong, out.err)
		}
		return t, nil
	}
	if _, err := nbrSession(context.Background(), 0); err != nil {
		in.close()
		return nil, err
	}
	in.layer = func(ctx context.Context, m map[string]float64) error {
		var lat []float64
		for k := 1; k <= 5; k++ {
			t, err := nbrSession(ctx, k)
			if err != nil {
				return err
			}
			lat = append(lat, float64(t.Nanoseconds()))
		}
		m["graphrecon.nbr_session_ms"] = median(lat) / 1e6
		return nil
	}
	in.registries = []*obs.Registry{srv.Registry()}
	in.cacheStats = func() (enccache.Stats, enccache.Stats) {
		var cs enccache.Stats
		for _, c := range clients {
			cs = sumStats(cs, c.CacheStats())
		}
		return srv.CacheStats(), cs
	}
	return in, nil
}

// ---- churn_sos_disk ----

// churnState is one driver's dataset: the server's current parent set and
// the local replica that adopts every reconcile's result.
type churnState struct {
	name       string
	alice, bob [][]uint64
	cfg        sosr.Config
}

// swapOne returns cs with one element replaced by a fresh one, size kept.
func swapOne(src *prng.Source, cs []uint64) []uint64 {
	out := setutil.Clone(cs)
	for {
		x := src.Uint64n(1 << 32)
		if !setutil.Contains(cs, x) {
			out[src.Intn(len(out))] = x
			return setutil.Canonical(out)
		}
	}
}

func setupChurn(seed uint64, dir string, tracer *obs.Tracer) (*instance, error) {
	in := &instance{clients: numClients, warmOps: 4} // the live digest is admitted on the third session of a key
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in.stop = append(in.stop, func() { _ = os.RemoveAll(dir) })
	st, err := store.Open(dir, store.Options{CompactBytes: 256 << 10}) // fsync stays on
	if err != nil {
		return nil, err
	}
	in.stop = append(in.stop, func() { _ = st.Close() })
	reg := obs.NewRegistry()
	st.Observe(reg)
	srv := sosrnet.NewServer()
	srv.Obs = reg
	srv.Trace = tracer
	srv.CacheBytes = 4 << 20 // every version is a new payload; see setupCold
	srv.UseStore(st)
	states := make([]*churnState, in.clients)
	var hostedBytes float64
	for c := range states {
		_, base := workload.PlantedSetsOfSets(seed+uint64(c)*7919, 2000, 10, 1<<32, 0)
		states[c] = &churnState{
			name: fmt.Sprintf("docs-%d", c), alice: base, bob: setutil.CloneSets(base),
			// The shape is pinned so the server's live-digest key never drifts.
			cfg: sosr.Config{
				Seed: opSeed(seed, "churn_sos_disk", c, 0, 0), Protocol: sosr.ProtocolCascade, KnownDiff: 8,
				MaxChildSets: 2000, MaxChildSize: 10, Universe: 1 << 32,
			},
		}
		if err := srv.HostSetsOfSets(states[c].name, base); err != nil {
			return nil, err
		}
		hostedBytes += float64(8 * setutil.TotalSize(base))
	}
	addr, err := in.serve(srv)
	if err != nil {
		return nil, err
	}
	clients := make([]*sosrnet.Client, in.clients)
	for i := range clients {
		clients[i] = sosrnet.Dial(addr)
		clients[i].Trace = tracer
		clients[i].CacheBytes = 4 << 20 // Bob's data changes every op, so every sketch is new
	}
	in.op = func(ctx context.Context, client, idx int) opOutcome {
		out := opOutcome{diff: 8}
		s := states[client]
		src := prng.New(opSeed(seed, "churn_sos_disk", client, idx, 1))
		var add, remove [][]uint64
		for _, i := range src.Perm(len(s.alice))[:4] {
			fresh := swapOne(src, s.alice[i])
			remove, add = append(remove, s.alice[i]), append(add, fresh)
			s.alice[i] = fresh
		}
		root := tracer.StartRoot("bench/op")
		ctx = obs.ContextWithSpan(ctx, root)
		usp := root.Child("bench/update")
		t0 := time.Now()
		err := srv.UpdateSetsOfSets(s.name, add, remove)
		out.update = time.Since(t0)
		usp.Finish()
		if err != nil {
			out.failed, out.err = true, err
		} else {
			var recovered [][]uint64
			out.latency = runSession(ctx, &out, client, s.cfg.Seed, func(ctx context.Context, client int, sd uint64) (usage, func() bool, error) {
				c := s.cfg
				c.Seed = sd
				res, ns, err := clients[client].SetsOfSets(ctx, s.name, s.bob, c)
				return netUsage(ns), func() bool {
					recovered = res.Recovered
					return setutil.HashSetOfSets(verifySeed, recovered) == setutil.HashSetOfSets(verifySeed, s.alice)
				}, err
			})
			if !out.failed && !out.wrong {
				s.bob = recovered
			} else {
				s.bob = setutil.CloneSets(s.alice) // resynchronize so one bad op does not fail the rest
			}
		}
		root.Finish()
		out.trace = root.TraceID()
		return out
	}
	in.registries = []*obs.Registry{reg}
	in.cacheStats = func() (enccache.Stats, enccache.Stats) {
		var cs enccache.Stats
		for _, c := range clients {
			cs = sumStats(cs, c.CacheStats())
		}
		return srv.CacheStats(), cs
	}
	// Counters at the end of set-up: the store metrics below cover the
	// updates of the run, not the initial snapshots.
	base := promSample(reg)
	in.layer = func(_ context.Context, m map[string]float64) error {
		now := promSample(reg)
		delta := func(name string) float64 { return now[name] - base[name] }
		if n := delta("sosr_wal_appends_total"); n > 0 {
			wal, snap := delta("sosr_wal_append_bytes_total"), delta("sosr_store_snapshot_bytes_total")
			m["store.wal_bytes_per_update"] = wal / n
			// Each update rewrites 4 child sets: 4 removed + 4 added, ~8 elements of 8 bytes each.
			userBytes := n * 8 * hostedBytes / float64(in.clients) / 2000
			m["store.write_amp"] = (wal + snap) / userBytes
		}
		m["store.compactions"] = delta("sosr_store_snapshots_total")
		return nil
	}
	return in, nil
}

// ---- shard_sos_fanout ----

func setupShard(seed uint64, _ string, tracer *obs.Tracer) (*instance, error) {
	in := &instance{clients: 1, warmOps: 3}
	alice, bob := workload.PlantedSetsOfSets(seed, 2000, 10, 1<<32, 32)
	want := setutil.HashSetOfSets(verifySeed, canonicalSets(alice))
	const shards, shardBasePort = 2, 27181 // below the ephemeral range, so no client connection can hold the port
	servers := make([][]*sosrnet.Server, shards)
	addrs := make([]string, shards)
	for i := range servers {
		srv := sosrnet.NewServer()
		srv.Trace = tracer
		addr, err := in.serveAt(srv, shardBasePort+i)
		if err != nil {
			return nil, err
		}
		servers[i], addrs[i] = []*sosrnet.Server{srv}, addr
		in.registries = append(in.registries, srv.Registry())
	}
	topo, err := sosrshard.SingleReplica(1, addrs)
	if err != nil {
		return nil, err
	}
	co, err := sosrshard.NewCoordinator(topo, servers)
	if err != nil {
		return nil, err
	}
	if err := co.HostSetsOfSets("docs", alice); err != nil {
		return nil, err
	}
	client, err := sosrshard.Dial(topo)
	if err != nil {
		return nil, err
	}
	creg := obs.NewRegistry()
	client.Obs = creg
	client.Trace = tracer
	cfg := sosr.Config{Seed: opSeed(seed, "shard_sos_fanout", 0, 0, 0), Protocol: sosr.ProtocolCascade, KnownDiff: 32}
	var sharded struct{ wire, ops int64 }
	in.op = func(ctx context.Context, _, _ int) opOutcome {
		out := opOutcome{diff: 32}
		root := tracer.StartRoot("bench/op")
		ctx = obs.ContextWithSpan(ctx, root)
		out.latency = runSession(ctx, &out, 0, cfg.Seed, func(ctx context.Context, _ int, s uint64) (usage, func() bool, error) {
			c := cfg
			c.Seed = s
			res, st, err := client.SetsOfSets(ctx, "docs", bob, c)
			if err != nil {
				return usage{}, nil, err
			}
			u := usage{wire: st.WireIn + st.WireOut, overhead: st.Overhead, rounds: st.Protocol.Rounds}
			for _, sh := range st.Shards {
				u.shardTry += sh.Attempts
				u.frames += netUsage(&sh.Net).frames
			}
			return u, func() bool { return setutil.HashSetOfSets(verifySeed, res.Recovered) == want }, nil
		})
		root.Finish()
		out.trace = root.TraceID()
		sharded.wire += out.wire
		sharded.ops++
		return out
	}
	in.cacheStats = func() (enccache.Stats, enccache.Stats) {
		var ss enccache.Stats
		for _, g := range servers {
			ss = sumStats(ss, g[0].CacheStats())
		}
		// The fan-out client keeps its per-shard session clients private;
		// their sketch-cache outcomes reach its registry as events.
		ev := promSample(creg)
		return ss, enccache.Stats{
			Hits:   uint64(ev[`sosr_decodecache_events_total{event="hit"}`]),
			Misses: uint64(ev[`sosr_decodecache_events_total{event="miss"}`]),
		}
	}
	in.layer = func(ctx context.Context, m map[string]float64) error {
		ev := promSample(creg)
		if n := ev["sosr_shard_straggler_seconds_count"]; n > 0 {
			m["sosrshard.straggler_spread_us"] = ev["sosr_shard_straggler_seconds_sum"] / n * 1e6
		}
		// The slower shard's own session, without the fan-out around it.
		split := topo.SplitSets(canonicalSets(bob))
		var slower float64
		for i, addr := range addrs {
			cl := sosrnet.Dial(addr)
			cl.ShardID, cl.ShardCount = topo.ShardIDHash(i), topo.NumShards()
			cl.ShardEpoch, cl.ShardFingerprint = topo.Epoch(), topo.Fingerprint()
			var lat []float64
			for k := 0; k < 103; k++ {
				t0 := time.Now()
				if _, _, err := cl.SetsOfSets(ctx, "docs", split[i], cfg); err != nil {
					return fmt.Errorf("direct session to shard %d: %w", i, err)
				}
				if k >= 3 {
					lat = append(lat, float64(time.Since(t0).Nanoseconds()))
				}
			}
			slower = max(slower, median(lat))
		}
		m["sosrshard.direct_session_ns"] = slower // consumed by finishLayer, not reported
		// One unsharded session over the same data, for the byte ratio.
		single := &instance{}
		defer single.close()
		srv := sosrnet.NewServer()
		if err := srv.HostSetsOfSets("docs", alice); err != nil {
			return err
		}
		addr, err := single.serve(srv)
		if err != nil {
			return err
		}
		_, ns, err := sosrnet.Dial(addr).SetsOfSets(ctx, "docs", bob, cfg)
		if err != nil {
			return fmt.Errorf("unsharded reference session: %w", err)
		}
		if sharded.ops > 0 {
			m["sosrshard.bytes_vs_single_ratio"] = float64(sharded.wire) / float64(sharded.ops) / float64(ns.WireIn+ns.WireOut)
		}
		return nil
	}
	return in, nil
}
