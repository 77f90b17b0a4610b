package sosr

import (
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"sosr/internal/core"
	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/workload"
)

// A table's 32-bit checksums only keep a peel from taking a cell that holds
// several keys. What a decode returns is verified above its table, by the
// 64-bit hash every protocol sends beside it. Each row here forges a table
// that passes every check a cell has, for keys Alice never inserted: the
// forged table is the honest encoding of another parent, sent with the hash of
// Alice's. Bob must end in a classified error, never in a wrong result. The
// last row is the same for a child IBLT whose key sums are narrower than an
// element Alice holds because she skipped Validate.

// verifyClasses are the classified errors of a decode: the table did not peel,
// a child did not recover, or the result failed its verification hash.
var verifyClasses = []error{
	setrecon.ErrDecode, setrecon.ErrVerify,
	core.ErrParentDecode, core.ErrChildDecode, core.ErrVerify,
	graphrecon.ErrVerify,
}

// classified reports whether err is one of verifyClasses, wrapped or, as
// forest.ErrBudget carries it, named in the message.
func classified(err error) bool {
	for _, c := range verifyClasses {
		if errors.Is(err, c) || strings.Contains(err.Error(), c.Error()) {
			return true
		}
	}
	return false
}

// forgeMarshaled inserts x into the word table that msg carries before its
// 8-byte verification hash, under the table's own header.
func forgeMarshaled(t *testing.T, msg []byte, x uint64) []byte {
	t.Helper()
	body := msg[:len(msg)-8]
	var tab iblt.Table
	if err := tab.UnmarshalInto(body, int(binary.LittleEndian.Uint32(body)), binary.LittleEndian.Uint64(body[12:])); err != nil {
		t.Fatal(err)
	}
	tab.InsertUint64(x)
	return append(tab.AppendMarshal(nil), msg[len(msg)-8:]...)
}

// withHash is forged's tables under honest's trailing verification hash.
func withHash(forged, honest []byte) []byte {
	return append(slices.Clone(forged[:len(forged)-8]), honest[len(honest)-8:]...)
}

func TestDecodesAreVerifiedAboveTheTable(t *testing.T) {
	coins := hashing.NewCoins(5)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// A sets-of-sets pair, and a child set neither party holds.
	p := core.Params{S: 64, H: 16, U: 1 << 32}
	const d = 8
	alice, bob := workload.PlantedSetsOfSets(3, p.S, p.H, p.U, d)
	alice, bob = setutil.CanonicalSets(alice), setutil.CanonicalSets(bob)
	extra := append(slices.Clone(alice), []uint64{7, 70, 700})
	// Alice's parent without one child Bob holds as well.
	var shared int
	for shared = range alice {
		if slices.ContainsFunc(bob, func(cs []uint64) bool { return slices.Equal(cs, alice[shared]) }) {
			break
		}
	}
	fewer := slices.Delete(slices.Clone(alice), shared, shared+1)
	oneRound := func(kind core.DigestKind, forged [][]uint64) (bool, error) {
		honest, err := core.AliceMsg(kind, coins, alice, p, d, 0)
		must(err)
		lie, err := core.AliceMsg(kind, coins, forged, p, d, 0)
		must(err)
		res, err := core.ApplyMsg(kind, coins, withHash(lie, honest), bob, p, d, 0)
		return err == nil && setutil.EqualSetOfSets(res.Recovered, alice), err
	}

	// Plain sets.
	src := prng.New(9)
	var setA, setB []uint64
	for i := uint64(0); i < 500; i++ {
		x := src.Uint64n(1 << 59)
		setA, setB = append(setA, x), append(setB, x)
	}
	setA = append(setA, 11, 12)
	setA, setB = setutil.Canonical(setA), setutil.Canonical(setB)

	// Degree ordering (§5.1) and forests (§6), as the golden payloads build them.
	gsrc := prng.New(31)
	base, h, err := graphrecon.PlantedSeparated(480, 2, 0.4, gsrc)
	must(err)
	ga, _ := graph.Perturb(base, 1, gsrc)
	gb, _ := graph.Perturb(base, 1, gsrc)
	dp := graphrecon.DegreeOrderParams{H: h, D: 2}
	gm, err := graphrecon.DegreeOrderAlice(coins, ga, dp)
	must(err)
	want, err := graphrecon.DegreeOrderApply(coins, gb, dp, gm.Sig, gm.Edges)
	must(err)
	graphRun := func(sig, edges []byte) (bool, error) {
		got, err := graphrecon.DegreeOrderApply(coins, gb, dp, sig, edges)
		return err == nil && slices.Equal(got.Edges(), want.Edges()), err
	}
	fa := forest.Random(600, 0.2, prng.New(41))
	fb := forest.Perturb(fa, 3, prng.New(43))
	rp, fparams := forest.Plan(forest.Measure(fa), forest.Measure(fb), forest.ReconParams{D: 3, Sigma: 16})
	sig, meta, err := forest.AliceMsg(coins, fa, rp, fparams)
	must(err)

	for _, row := range []struct {
		name string
		run  func() (right bool, err error)
	}{
		{"set: a key Alice never inserted", func() (bool, error) {
			res, err := setrecon.ApplyIBLTMsg(coins, forgeMarshaled(t, setrecon.BuildIBLTMsg(coins, setA, 4), 1<<40), setB)
			return err == nil && slices.Equal(res.Recovered, setA), err
		}},
		{"cascade: a child set Alice never held", func() (bool, error) { return oneRound(core.DigestCascade, extra) }},
		{"nested: a child set Alice never held", func() (bool, error) { return oneRound(core.DigestNested, extra) }},
		{"cascade: a shared child dropped", func() (bool, error) { return oneRound(core.DigestCascade, fewer) }},
		{"multi-round hash table: a shared child dropped", func() (bool, error) {
			honest := core.MRAlice1(coins, alice, d)
			round2, st, err := core.MRBob2(coins, bob, p, withHash(core.MRAlice1(coins, fewer, d), honest))
			if err != nil {
				return false, err
			}
			round3, _, err := core.MRAlice3(coins, alice, p, d, round2)
			if err != nil {
				return false, err
			}
			res, err := core.MRBobFinish(coins, bob, st, round3)
			return err == nil && setutil.EqualSetOfSets(res.Recovered, alice), err
		}},
		{"graph edges: an edge Alice never had", func() (bool, error) {
			return graphRun(gm.Sig, forgeMarshaled(t, gm.Edges, 3<<30|5))
		}},
		{"graph signatures: another graph's", func() (bool, error) {
			// One edge edit that reaches a signature: most leave every one as
			// it was.
			om := gm
			for slices.Equal(om.Sig, gm.Sig) {
				other, _ := graph.Perturb(ga, 1, gsrc)
				if m, err := graphrecon.DegreeOrderAlice(coins, other, dp); err == nil {
					om = m
				}
			}
			return graphRun(withHash(om.Sig, gm.Sig), gm.Edges)
		}},
		{"forest signatures: another forest's", func() (bool, error) {
			osig, _, err := forest.AliceMsg(coins, forest.Perturb(fa, 1, prng.New(47)), rp, fparams)
			must(err)
			got, err := forest.Apply(coins, fb, rp, fparams, withHash(osig, sig), meta)
			return err == nil && forest.IsIsomorphic(got, fa), err
		}},
		{"child key sums: an element at u without Validate", func() (bool, error) {
			big := slices.Clone(alice)
			big[0] = append(slices.Clone(big[0]), p.U+7)
			honest, err := core.AliceMsg(core.DigestCascade, coins, big, p, d, 0)
			must(err)
			res, err := core.ApplyMsg(core.DigestCascade, coins, honest, bob, p, d, 0)
			return err == nil && setutil.EqualSetOfSets(res.Recovered, big), err
		}},
	} {
		right, err := row.run()
		switch {
		case err == nil && !right:
			t.Errorf("%s: a wrong result with no error", row.name)
		case err != nil && !classified(err):
			t.Errorf("%s: unclassified error %v", row.name, err)
		case err == nil:
			t.Errorf("%s: the forgery went unnoticed yet did no harm; it tests nothing", row.name)
		default:
			t.Logf("%s: %v", row.name, err)
		}
	}
}
