package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/field"
	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/shardmap"
	"sosr/internal/store"
	"sosr/internal/wire"
	"sosr/internal/workload"
	"sosr/sosrnet"
)

// probes.go measures single layers from outside: the benchmark calls a
// layer's exported functions itself, in-process, and records a span around
// every call. Three kinds of measurement share the mechanism:
//
//   - a decomposed op is one op of a workload redone as the chain of layer
//     calls it consists of (for hot_sos_tcp: payload-cache get, frame
//     encode, frame decode, cached Bob decode), repeated probeReps times;
//   - a micro probe loops one small function many times inside one span;
//   - a few probes run a real listener or store because the layer is one.
//
// Every value is the median over the repeats. The inputs have the shapes the
// workloads use and come from the run seed.

const probeReps = 7

var probeSink uint64 // keeps micro-probe loops from being optimized away

type prober struct {
	rec  *recorder
	seed uint64
	m    map[string]float64
	dir  string
	durs map[string][]float64 // span name -> durations (ns) over the repeats
}

// step records one layer call of a decomposed op.
func (p *prober) step(parent *span, name string, fn func()) {
	p.durs[name] = append(p.durs[name], float64(p.rec.call(parent, name, fn).Nanoseconds()))
}

// repeat runs op probeReps times, each under its own root span.
func (p *prober) repeat(rootName string, op func(root *span)) {
	for r := 0; r < probeReps; r++ {
		root := p.rec.begin(nil, rootName)
		op(root)
		p.rec.end(root)
	}
}

// us stores the median duration of span name under metric, in microseconds.
func (p *prober) us(metric, name string) { p.m[metric] = median(p.durs[name]) / 1e3 }

// micro loops fn iters times per repeat and stores the median time per call
// in nanoseconds.
func (p *prober) micro(metric string, iters int, fn func(i int)) {
	var per []float64
	for r := 0; r < probeReps; r++ {
		root := p.rec.begin(nil, "probe/"+metric)
		for i := 0; i < iters; i++ {
			fn(i)
		}
		p.rec.end(root)
		per = append(per, float64(root.dur().Nanoseconds())/float64(iters))
	}
	p.m[metric] = median(per)
}

// allocsPer counts heap allocations per call of fn.
func allocsPer(runs int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}

func toGraph(g sosr.Graph) *graph.Graph {
	out := graph.New(g.N)
	for _, e := range g.Edges {
		if e[0] != e[1] {
			out.AddEdge(e[0], e[1])
		}
	}
	return out
}

func maxChildLen(parent [][]uint64) int {
	n := 0
	for _, cs := range parent {
		n = max(n, len(cs))
	}
	return n
}

func must(err error) {
	if err != nil {
		panic(probeError{err})
	}
}

// probeError carries a layer failure out of a probe; runProbes turns it back
// into an error. A probe that cannot run is a broken benchmark, not a
// measurement.
type probeError struct{ err error }

// runProbes fills every workload-independent per-layer metric.
func runProbes(ctx context.Context, seed uint64, dir string, rec *recorder) (m map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(probeError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("probe: %w", pe.err)
		}
	}()
	p := &prober{rec: rec, seed: seed, m: map[string]float64{}, dir: dir, durs: map[string][]float64{}}
	p.microProbes()
	d, err := genCold(seed)
	if err != nil {
		return nil, err
	}
	p.coldOp(d)
	p.hotOp()
	p.churnOp()
	p.shardOp()
	p.failRatios(d)
	p.storeProbes()
	if err := p.sessionProbes(ctx); err != nil {
		return nil, err
	}
	return p.m, nil
}

func (p *prober) microProbes() {
	p.micro("hashing.hashword_ns", 2_000_000, func(i int) { probeSink += hashing.HashWord(p.seed, uint64(i)) })
	t := iblt.NewUint64(1024, 0, p.seed)
	p.micro("iblt.insert_ns", 1_000_000, func(i int) { t.InsertUint64(uint64(i) * 0x9E3779B97F4A7C15) })
	x, y := field.Reduce(p.seed|1), field.Reduce(0x1234567890abcdef)
	p.micro("field.mul_ns", 4_000_000, func(int) { x = field.Mul(x, y) })
	probeSink += x

	src := prng.New(p.seed ^ 0x1b17)
	tab := iblt.NewUint64(iblt.CellsFor(256), 0, p.seed)
	var dec []float64
	for r := 0; r < 5*probeReps; r++ {
		tab.Reset()
		for k := 0; k < 256; k++ {
			tab.InsertUint64(src.Uint64())
		}
		dec = append(dec, float64(p.rec.call(nil, "iblt.decode", func() {
			_, _, _ = tab.DecodeUint64() // a stalled peel costs the same time; failures are counted by iblt.decode_fail_ratio
		}).Nanoseconds()))
	}
	p.m["iblt.decode_us"] = median(dec) / 1e3

	roots := distinctElems(src, 16, field.P, map[uint64]bool{})
	poly := field.FromRoots(roots)
	var rts []float64
	for r := 0; r < 5*probeReps; r++ {
		rts = append(rts, float64(p.rec.call(nil, "field.roots", func() {
			got, err := field.Roots(poly, src.Uint64())
			must(err)
			probeSink += uint64(len(got))
		}).Nanoseconds()))
	}
	p.m["field.roots_us"] = median(rts) / 1e3

	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(src.Uint64())
	}
	var frame []byte
	p.micro("wire.frame_encode_ns", 200_000, func(int) {
		var err error
		frame, err = wire.AppendFrame(frame[:0], "cascade-iblts", payload)
		must(err)
	})
	rd := bytes.NewReader(frame)
	p.micro("wire.frame_decode_ns", 200_000, func(int) {
		rd.Reset(frame)
		_, got, _, err := wire.ReadFrame(rd, 0)
		must(err)
		probeSink += uint64(len(got))
	})

	cache := enccache.New(0)
	key := enccache.Key{Dataset: "docs", Proto: "cascade", Seed: p.seed, S: 200, H: 16, D: 32, DHat: 32}
	build := func() ([]byte, error) { return payload, nil }
	_, err := cache.GetOrCompute(key, build)
	must(err)
	p.micro("enccache.hit_us", 500_000, func(int) {
		b, err := cache.GetOrCompute(key, build)
		must(err)
		probeSink += uint64(len(b))
	})
	p.m["enccache.hit_us"] /= 1e3

	m, err := shardmap.New([]string{"127.0.0.1:7181", "127.0.0.1:7182"})
	must(err)
	p.micro("shardmap.owner_ns", 1_000_000, func(i int) { probeSink += uint64(m.Owner(uint64(i) * 0x9E3779B97F4A7C15)) })
}

// frameTrip pushes payload through the frame codec the way a session does.
func (p *prober) frameTrip(root *span, label string, payload []byte) []byte {
	var frame, got []byte
	p.step(root, "wire.AppendFrame", func() {
		var err error
		frame, err = wire.AppendFrame(nil, label, payload)
		must(err)
	})
	p.step(root, "wire.ReadFrame", func() {
		var err error
		_, got, _, err = wire.ReadFrame(bytes.NewReader(frame), 0)
		must(err)
	})
	return got
}

// coldOp takes one cold_kinds_tcp cycle apart: each leg is Alice's encode,
// the frame codec, and Bob's decode, with fresh coins per repeat.
func (p *prober) coldOp(d *coldData) {
	sp, err := core.Params{S: 200, H: 16, U: 0}.Normalized()
	must(err)
	sosB := canonicalSets(d.sosB)
	degA, degB := toGraph(d.degA), toGraph(d.degB)
	nbrA, nbrB := toGraph(d.nbrA), toGraph(d.nbrB)
	forA, forB := &forest.Forest{Parent: d.forA.Parent}, &forest.Forest{Parent: d.forB.Parent}
	packedA, err := setrecon.MultisetToSet(d.multiA)
	must(err)
	packedB, err := setrecon.MultisetToSet(d.multiB)
	must(err)
	rep := 0
	var setBytes, naiveBytes, nestedBytes, cascadeBytes, forestBytes int
	var overshoot []float64
	p.repeat("decomposed/cold_kinds_tcp", func(root *span) {
		rep++
		coins := hashing.NewCoins(opSeed(p.seed, "probe", 0, rep, 0))
		var msg []byte

		p.step(root, "setrecon.iblt_encode", func() { msg = setrecon.BuildIBLTMsg(coins, d.setA, 32) })
		setBytes = len(msg)
		msg = p.frameTrip(root, "iblt", msg)
		p.step(root, "setrecon.iblt_decode", func() { _, _ = setrecon.ApplyIBLTMsg(coins, msg, d.setB) })

		p.step(root, "setrecon.charpoly_encode", func() { msg = setrecon.EncodeCharPoly(d.polyA, 17) })
		msg = p.frameTrip(root, "charpoly", msg)
		p.step(root, "setrecon.charpoly_decode", func() {
			_, err := setrecon.ApplyCharPolyMsg(coins, msg, d.polyB, 16)
			must(err)
		})

		var probe []byte
		p.step(root, "estimator.build", func() { probe = setrecon.BuildDiffEstimator(coins, d.setB) })
		p.step(root, "estimator.estimate", func() {
			bound, err := setrecon.DiffBoundFromEstimator(coins, probe, d.setA)
			must(err)
			overshoot = append(overshoot, float64(bound)/32)
		})

		p.step(root, "setrecon.multiset", func() {
			_, _ = setrecon.ApplyIBLTMsg(coins, setrecon.BuildIBLTMsg(coins, packedA, 16), packedB)
		})

		for _, k := range []struct {
			name  string
			kind  core.DigestKind
			label string
			bytes *int
		}{
			{"naive", core.DigestNaive, "naive-iblt", &naiveBytes},
			{"nested", core.DigestNested, "nested-iblt", &nestedBytes},
			{"cascade", core.DigestCascade, "cascade-iblts", &cascadeBytes},
		} {
			p.step(root, "core."+k.name+"_encode", func() {
				var err error
				msg, err = core.AliceMsg(k.kind, coins, d.sosA, sp, 16, 16)
				must(err)
			})
			*k.bytes = len(msg)
			msg = p.frameTrip(root, k.label, msg)
			// One attempt may fail to decode (the session would ask for a
			// replica); its time is still the cost of a decode.
			p.step(root, "core."+k.name+"_decode", func() { _, _ = core.ApplyMsg(k.kind, coins, msg, sosB, sp, 16, 16) })
		}
		p.step(root, "core.multiround", func() {
			m1 := core.MRAlice1(coins, d.sosA, 16)
			m2, st, err := core.MRBob2(coins, sosB, sp, m1)
			if err != nil {
				return // undecodable hash table: the session would retry
			}
			m3, _, err := core.MRAlice3(coins, d.sosA, sp, 0, m2)
			if err != nil {
				return
			}
			_, _ = core.MRBobFinish(coins, sosB, st, m3)
		})

		dp := graphrecon.DegreeOrderParams{H: d.degH, D: 2}
		var gm *graphrecon.GraphMsgs
		p.step(root, "graphrecon.degree_encode", func() {
			var err error
			gm, err = graphrecon.DegreeOrderAlice(coins, degA, dp)
			must(err)
		})
		p.step(root, "graphrecon.degree_decode", func() { _, _ = graphrecon.DegreeOrderApply(coins, degB, dp, gm.Sig, gm.Edges) })

		rp, fp := forest.Plan(forest.Measure(forA), forest.Measure(forB), forest.ReconParams{Sigma: forestSigma, D: 3})
		var sig, meta []byte
		p.step(root, "forest.encode", func() {
			var err error
			sig, meta, err = forest.AliceMsg(coins, forA, rp, fp)
			must(err)
		})
		forestBytes = len(sig) + len(meta)
		p.step(root, "forest.decode", func() { _, _ = forest.Apply(coins, forB, rp, fp, sig, meta) })
	})
	// The degree-neighbourhood scheme is not part of the timed cycle (see
	// setupCold); its two halves are probed the same way.
	p.repeat("probe/graphrecon.nbr", func(root *span) {
		rep++
		coins := hashing.NewCoins(opSeed(p.seed, "probe", 0, rep, 0))
		np := graphrecon.NeighborhoodParams{M: nbrM, D: 1}
		var sideB *graphrecon.NbrSide
		var gm *graphrecon.GraphMsgs
		maxSig := 0
		p.step(root, "graphrecon.nbr_encode", func() {
			sideA, err := graphrecon.NeighborhoodEncode(nbrA, nbrM)
			must(err)
			sideB, err = graphrecon.NeighborhoodEncode(nbrB, nbrM) // Bob's half runs before his hello
			must(err)
			maxSig = max(sideA.MaxSig, sideB.MaxSig)
			gm, err = graphrecon.NeighborhoodAlice(coins, nbrA, np, sideA, maxSig)
			must(err)
		})
		p.step(root, "graphrecon.nbr_decode", func() {
			_, _ = graphrecon.NeighborhoodApply(coins, nbrB, np, sideB, maxSig, gm.Sig, gm.Edges)
		})
	})
	for _, n := range []string{"setrecon.iblt_encode", "setrecon.iblt_decode", "setrecon.charpoly_encode", "setrecon.charpoly_decode",
		"core.naive_encode", "core.naive_decode", "core.nested_encode", "core.nested_decode", "core.cascade_encode", "core.cascade_decode",
		"graphrecon.degree_encode", "graphrecon.degree_decode", "graphrecon.nbr_encode", "graphrecon.nbr_decode", "forest.encode", "forest.decode"} {
		p.us(n+"_us", n)
	}
	p.us("estimator.strata_build_us", "estimator.build")
	p.m["estimator.overshoot_ratio"] = median(overshoot)
	p.m["core.multiround_ms"] = median(p.durs["core.multiround"]) / 1e6
	p.m["setrecon.bytes_per_diff"] = float64(setBytes) / 32
	p.m["core.naive_bytes_per_diff"] = float64(naiveBytes) / 16
	p.m["core.nested_bytes_per_diff"] = float64(nestedBytes) / 16
	p.m["core.cascade_bytes_per_diff"] = float64(cascadeBytes) / 16
	p.m["forest.bytes_per_diff"] = float64(forestBytes) / 3

	coins := hashing.NewCoins(p.seed)
	dp := graphrecon.DegreeOrderParams{H: d.degH, D: 2}
	p.m["graphrecon.degree_allocs"] = allocsPer(5, func() {
		gm, err := graphrecon.DegreeOrderAlice(coins, degA, dp)
		must(err)
		_, _ = graphrecon.DegreeOrderApply(coins, degB, dp, gm.Sig, gm.Edges)
	})
	rp, fp := forest.Plan(forest.Measure(forA), forest.Measure(forB), forest.ReconParams{Sigma: forestSigma, D: 3})
	p.m["forest.allocs"] = allocsPer(5, func() {
		sig, meta, err := forest.AliceMsg(coins, forA, rp, fp)
		must(err)
		_, _ = forest.Apply(coins, forB, rp, fp, sig, meta)
	})
}

// hotOp takes one hot_sos_tcp session apart: the server's payload-cache hit,
// the frame codec, and Bob's decode against his cached sketch.
func (p *prober) hotOp() {
	alice, bob := workload.PlantedSetsOfSets(p.seed, 200, 10, 1<<32, 16)
	bob = canonicalSets(bob)
	sp, err := core.Params{S: len(alice), H: max(maxChildLen(alice), maxChildLen(bob))}.Normalized()
	must(err)
	const d = 32
	dHat := core.DHat(d, sp.S)
	coins := hashing.NewCoins(p.seed).Sub("replica", 0)
	cache := enccache.New(0)
	key := enccache.Key{Dataset: "docs", Proto: "cascade", Seed: coins.Master(), S: sp.S, H: sp.H, U: sp.U, D: d, DHat: dHat}
	build := func() ([]byte, error) { return core.AliceMsg(core.DigestCascade, coins, alice, sp, d, dHat) }
	_, err = cache.GetOrCompute(key, build)
	must(err)
	sk, err := core.NewBobSketch(core.DigestCascade, coins, bob, sp, d, dHat)
	must(err)
	var msg []byte
	p.repeat("decomposed/hot_sos_tcp", func(root *span) {
		p.step(root, "enccache.GetOrCompute", func() {
			var err error
			msg, err = cache.GetOrCompute(key, build)
			must(err)
		})
		msg = p.frameTrip(root, "cascade-iblts", msg)
		p.step(root, "core.ApplyMsgCached", func() {
			_, err := core.ApplyMsgCached(core.DigestCascade, coins, msg, bob, sp, d, dHat, sk)
			must(err)
		})
	})
	// A session decodes thousands of times a second: take the cached decode
	// from a longer loop than the seven decomposed ops.
	p.micro("core.cascade_decode_cached_us", 300, func(int) {
		_, err := core.ApplyMsgCached(core.DigestCascade, coins, msg, bob, sp, d, dHat, sk)
		must(err)
	})
	p.m["core.cascade_decode_cached_us"] /= 1e3
	p.m["core.cascade_decode_allocs"] = allocsPer(50, func() {
		_, err := core.ApplyMsg(core.DigestCascade, coins, msg, bob, sp, d, dHat)
		must(err)
	})
}

// churnParent is the s=2000 parent set the churn and store probes share.
func (p *prober) churnParent() ([][]uint64, core.Params) {
	_, base := workload.PlantedSetsOfSets(p.seed, 2000, 10, 1<<32, 0)
	sp, err := core.Params{S: 2000, H: 10, U: 1 << 32}.Normalized()
	must(err)
	return base, sp
}

// churnOp takes one churn_sos_disk op apart: the WAL append, the live
// digest's patch and snapshot, the frame codec, and Bob's sketch rebuild and
// decode.
func (p *prober) churnOp() {
	alice, sp := p.churnParent()
	bob := setutil.CloneSets(alice)
	const d = 8
	dHat := core.DHat(d, sp.S)
	coins := hashing.NewCoins(p.seed).Sub("replica", 0)
	dig, err := core.NewIncrementalDigest(core.DigestCascade, coins, sp, d, dHat)
	must(err)
	for _, cs := range alice {
		must(dig.Add(cs))
	}
	dir := filepath.Join(p.dir, "probe-churn")
	st, err := store.Open(dir, store.Options{})
	must(err)
	defer os.RemoveAll(dir)
	defer st.Close()
	must(st.SaveSnapshot(&store.Record{Name: "docs", Kind: store.KindSetsOfSets, Version: 1, Parents: alice}))
	src := prng.New(p.seed ^ 0xc4)
	version := uint64(1)
	p.repeat("decomposed/churn_sos_disk", func(root *span) {
		var add, remove [][]uint64
		idx := src.Perm(len(alice))[:4]
		for _, i := range idx {
			remove, add = append(remove, alice[i]), append(add, swapOne(src, alice[i]))
		}
		version++
		p.step(root, "store.AppendUpdate", func() {
			_, err := st.AppendUpdate("docs", &store.Update{Version: version, AddSets: add, RemoveSets: remove})
			must(err)
		})
		p.step(root, "core.digest_patch", func() {
			for k := range add {
				must(dig.Remove(remove[k]))
				must(dig.Add(add[k]))
			}
		})
		for k, i := range idx {
			alice[i] = add[k]
		}
		var msg []byte
		p.step(root, "core.digest_snapshot", func() { msg = dig.SnapshotMsg() })
		msg = p.frameTrip(root, "cascade-iblts", msg)
		var sk *core.BobSketch
		p.step(root, "core.sketch_build", func() {
			var err error
			sk, err = core.NewBobSketch(core.DigestCascade, coins, bob, sp, d, dHat)
			must(err)
		})
		p.step(root, "core.ApplyMsgCached", func() {
			res, err := core.ApplyMsgCached(core.DigestCascade, coins, msg, bob, sp, d, dHat, sk)
			if err == nil { // a failed attempt would be replicated; Bob then stays behind
				bob = res.Recovered
			} else {
				bob = setutil.CloneSets(alice)
			}
		})
	})
	p.m["core.digest_patch_us"] = median(p.durs["core.digest_patch"]) / 1e3 / 4 // per Remove+Add pair
	p.us("core.digest_snapshot_us", "core.digest_snapshot")
	p.us("core.sketch_build_us", "core.sketch_build")
}

// shardOp takes one shard_sos_fanout op apart: the ownership split of Bob's
// children, then per shard what hotOp does, then the merge order.
func (p *prober) shardOp() {
	alice, bob := workload.PlantedSetsOfSets(p.seed, 2000, 10, 1<<32, 32)
	alice, bob = canonicalSets(alice), canonicalSets(bob)
	topo, err := shardmap.SingleReplica(1, []string{"127.0.0.1:7181", "127.0.0.1:7182"})
	must(err)
	const d = 32
	type shard struct {
		alice, bob [][]uint64
		sp         core.Params
		msg        []byte
		sk         *core.BobSketch
	}
	coins := hashing.NewCoins(p.seed).Sub("replica", 0)
	shards := make([]*shard, topo.NumShards())
	for i, part := range topo.SplitSets(alice) {
		sh := &shard{alice: part, bob: topo.OwnedSets(i, bob)}
		sh.sp, err = core.Params{S: max(len(sh.alice), len(sh.bob)), H: max(maxChildLen(sh.alice), maxChildLen(sh.bob))}.Normalized()
		must(err)
		sh.msg, err = core.AliceMsg(core.DigestCascade, coins, sh.alice, sh.sp, d, core.DHat(d, sh.sp.S))
		must(err)
		sh.sk, err = core.NewBobSketch(core.DigestCascade, coins, sh.bob, sh.sp, d, core.DHat(d, sh.sp.S))
		must(err)
		shards[i] = sh
	}
	p.repeat("decomposed/shard_sos_fanout", func(root *span) {
		p.step(root, "shardmap.SplitSets", func() { probeSink += uint64(len(topo.SplitSets(bob))) })
		var merged [][]uint64
		for _, sh := range shards {
			msg := p.frameTrip(root, "cascade-iblts", sh.msg)
			p.step(root, "core.ApplyMsgCached", func() {
				res, err := core.ApplyMsgCached(core.DigestCascade, coins, msg, sh.bob, sh.sp, d, core.DHat(d, sh.sp.S), sh.sk)
				if err == nil {
					merged = append(merged, res.Recovered...)
				}
			})
		}
		p.step(root, "sosrshard.merge", func() { setutil.SortSets(merged) })
	})
}

// failRatios measures how often the randomized decoders fail at the sizes
// the protocols pick: the share a retry has to absorb.
func (p *prober) failRatios(d *coldData) {
	src := prng.New(p.seed ^ 0xfa11)
	const keys = 32
	failed := 0
	for s := 0; s < 1000; s++ {
		t := iblt.NewUint64(iblt.CellsFor(keys), 0, src.Uint64())
		for k := 0; k < keys; k++ {
			t.InsertUint64(src.Uint64())
		}
		if _, _, err := t.DecodeUint64(); err != nil {
			failed++
		}
	}
	p.m["iblt.decode_fail_ratio"] = float64(failed) / 1000

	// 500 fresh coins over the cycle's degree-ordering instance, on both cores.
	degA, degB := toGraph(d.degA), toGraph(d.degB)
	dp := graphrecon.DegreeOrderParams{H: d.degH, D: 2}
	const seeds = 500
	workers := runtime.GOMAXPROCS(0)
	fails := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := w; s < seeds; s += workers {
				coins := hashing.NewCoins(opSeed(p.seed, "degree-fail", 0, s, 0))
				gm, err := graphrecon.DegreeOrderAlice(coins, degA, dp)
				if err == nil {
					_, err = graphrecon.DegreeOrderApply(coins, degB, dp, gm.Sig, gm.Edges)
				}
				if err != nil {
					fails[w]++
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, f := range fails {
		total += f
	}
	p.m["graphrecon.degree_fail_ratio"] = float64(total) / seeds
}

// storeProbes times the durable store alone: appends with and without
// fsync, a snapshot of the churn dataset, and a cold recovery of it.
func (p *prober) storeProbes() {
	alice, _ := p.churnParent()
	src := prng.New(p.seed ^ 0x570e)
	appendRun := func(name string, opt store.Options, n int) []float64 {
		dir := filepath.Join(p.dir, "probe-"+name)
		st, err := store.Open(dir, opt)
		must(err)
		defer os.RemoveAll(dir)
		defer st.Close()
		must(st.SaveSnapshot(&store.Record{Name: "docs", Kind: store.KindSetsOfSets, Version: 1, Parents: alice}))
		var durs []float64
		for v := 0; v < n; v++ {
			var add, remove [][]uint64
			for _, i := range src.Perm(len(alice))[:4] {
				remove, add = append(remove, alice[i]), append(add, swapOne(src, alice[i]))
			}
			up := &store.Update{Version: uint64(v + 2), AddSets: add, RemoveSets: remove}
			durs = append(durs, float64(p.rec.call(nil, "store."+name, func() {
				_, err := st.AppendUpdate("docs", up)
				must(err)
			}).Nanoseconds()))
		}
		return durs
	}
	synced := appendRun("append", store.Options{CompactBytes: -1}, 200)
	sort.Float64s(synced)
	p.m["store.append_p50_us"] = quantile(synced, 0.50) / 1e3
	p.m["store.append_p99_us"] = quantile(synced, 0.99) / 1e3
	p.m["store.append_nosync_us"] = median(appendRun("append_nosync", store.Options{CompactBytes: -1, NoSync: true}, 200)) / 1e3

	// Snapshot through a serving server, then recover a second server from
	// what the first left on disk.
	dir := filepath.Join(p.dir, "probe-recover")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	must(err)
	srv := sosrnet.NewServer()
	srv.UseStore(st)
	must(srv.HostSetsOfSets("docs", alice))
	var snaps []float64
	for r := 0; r < probeReps; r++ {
		snaps = append(snaps, float64(p.rec.call(nil, "store.snapshot", func() { must(srv.SnapshotDataset("docs")) }).Nanoseconds()))
	}
	p.m["store.snapshot_ms"] = median(snaps) / 1e6
	must(st.Close())
	var recs []float64
	for r := 0; r < probeReps; r++ {
		recs = append(recs, float64(p.rec.call(nil, "store.recover", func() {
			st, err := store.Open(dir, store.Options{})
			must(err)
			defer st.Close()
			fresh := sosrnet.NewServer()
			fresh.UseStore(st)
			stats, err := fresh.Recover()
			must(err)
			if stats.Datasets != 1 {
				must(fmt.Errorf("recovered %d datasets, want 1", stats.Datasets))
			}
		}).Nanoseconds()))
	}
	p.m["store.recover_ms"] = median(recs) / 1e6
}

// sessionProbes runs a real listener for the two numbers that need one: the
// smallest possible session, where per-session cost is all there is, and an
// update with no store behind it.
func (p *prober) sessionProbes(ctx context.Context) error {
	in := &instance{}
	defer in.close()
	srv := sosrnet.NewServer()
	elems := make([]uint64, 16)
	for i := range elems {
		elems[i] = uint64(i*7 + 1)
	}
	if err := srv.HostSets("null", elems); err != nil {
		return err
	}
	alice, _ := p.churnParent()
	if err := srv.HostSetsOfSets("mem", alice); err != nil {
		return err
	}
	addr, err := in.serve(srv)
	if err != nil {
		return err
	}
	cl := sosrnet.Dial(addr)
	local := append(setutil.Clone(elems[1:]), 1<<40) // d = 2 against the hosted set
	var lat []float64
	for k := 0; k < 320; k++ {
		t0 := time.Now()
		if _, _, err := cl.Sets(ctx, "null", local, sosr.SetConfig{Seed: p.seed, KnownDiff: 2}); err != nil {
			return fmt.Errorf("null session: %w", err)
		}
		if k >= 20 {
			lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		}
	}
	p.m["sosrnet.null_session_us"] = median(lat) / 1e3

	// Admit the live digest the way churn_sos_disk does, then time updates.
	cfg := sosr.Config{Seed: p.seed, Protocol: sosr.ProtocolCascade, KnownDiff: 8, MaxChildSets: 2000, MaxChildSize: 10, Universe: 1 << 32}
	bob := setutil.CloneSets(alice)
	src := prng.New(p.seed ^ 0x3e3)
	var ups []float64
	for k := 0; k < 54; k++ {
		var add, remove [][]uint64
		for _, i := range src.Perm(len(alice))[:4] {
			fresh := swapOne(src, alice[i])
			remove, add = append(remove, alice[i]), append(add, fresh)
			alice[i] = fresh
		}
		s := p.rec.begin(nil, "sosrnet.update_mem")
		err := srv.UpdateSetsOfSets("mem", add, remove)
		p.rec.end(s)
		if err != nil {
			return fmt.Errorf("in-memory update: %w", err)
		}
		if k < 4 {
			res, _, err := cl.SetsOfSets(ctx, "mem", bob, cfg)
			if err != nil {
				return fmt.Errorf("warm session: %w", err)
			}
			bob = res.Recovered
			continue
		}
		ups = append(ups, float64(s.dur().Nanoseconds()))
	}
	p.m["sosrnet.update_mem_us"] = median(ups) / 1e3
	return nil
}
