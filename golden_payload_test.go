package sosr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"testing"

	"sosr/internal/core"
	"sosr/internal/field"
	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/workload"
)

// Golden payload parity. The hashes below were captured on the commit before
// the data plane moved to flat arenas and slices.Sort (PR 12); they pin every
// byte Alice puts on the wire, and every tie order that reaches an encoding,
// for fixed seeds. A change that alters one of them changes the protocol.
// Regenerate with SOSR_GOLDEN_PRINT=1 go test -run TestGoldenPayloads . — and
// only when a wire change is the point of the PR. The compact child-IBLT
// encoding (PR 14) was one: it moved exactly the five payloads whose parent
// keys are child encodings (core/nested, core/cascade, forest/sig,
// graphrecon/degree-sig, graphrecon/nbr-sig). The other ten — stand-alone
// tables, naive keys, char-poly, packings, orders and Bob's results — still
// carry their PR 12 hashes. Sizing the two signature collections at their true
// h (PR 19, protoVersion 4) moved exactly forest/sig and graphrecon/nbr-sig:
// fewer cascade levels and a T*; the meta frame, the edge tables and Bob's
// results did not move, and no persisted byte depends on either shape. The
// control frames of the same revision are pinned in sosrnet/ctl_test.go.
var goldenPayloads = map[string]string{
	"core/cascade":             "ec2fa5de98b271a301142ce3e0eaa498ba1bd264fe7addc0bf885e8abfb0f7c2",
	"core/multiset-parent":     "7c701af2ea5e39c5d3a022761f734ceafeddc4bdce5f8cfa19b1653bd1a526e9",
	"core/naive":               "f04e516e58c75c652c4303c88f5699f01702a6f6af571be94e54063e2c890a52",
	"core/nested":              "4cf4963e86585d8075dc5013c2505877108f4041a4985e7b58e05c6162876b7b",
	"field/roots-order":        "cdf4ff6f5cd7158602e64a83ffea27431cbdcd462fb07c700060634a4128dc11",
	"forest/meta":              "dcd6e9b82ebb172375dd3040d193dc146c388390ead62c09c17b74782bce9691",
	"forest/sig":               "a84779175eb686e9350f26bfa47e2ce2d249e59a0c3f002c7ba0c905df523e4e",
	"graphrecon/degree-edges":  "ab17d5bd7a040f644398e1071eef9eb1920303cadb3f426ed79ca0705e6a4cb4",
	"graphrecon/degree-result": "38681f8380eea2298e5bcfd364da09be1ad335dbd54cf06f186e59f647f3a4fc",
	"graphrecon/degree-sig":    "4c59346095b66d8f0f0258f48aa30b75af5b6c919289a36bffa67f8cbe5b1a9c",
	"graphrecon/nbr-edges":     "ab0c557b4c66a8b87adeac78c3e66e982d1e882e31ff2aa74198bd04b7f70c42",
	"graphrecon/nbr-result":    "bfad4be05e8e78b20d97427235f1b7f59ffc5595fca325294d618cba155eb4d6",
	"graphrecon/nbr-sig":       "5c57d89a5cce4c0e9b52f72e8abdc7e2820ec00cd976eeb8d4517e677bf28563",
	"setrecon/charpoly":        "957c7edf6bbb42595acd874be32e099bbcac0604c4d924ddb2b3fc2edc213ab8",
	"setrecon/multiset":        "14590b9d95d1a486fe3d2dd4f1136d9e7b4214768412db71d7f66239f80105c3",
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func wordsBytes(xs []uint64) []byte {
	out := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, x)
	}
	return out
}

// setsBytes serialises a parent set with child boundaries, so both contents
// and order are pinned.
func setsBytes(ss [][]uint64) []byte {
	var out []byte
	for _, cs := range ss {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(cs)))
		out = append(out, wordsBytes(cs)...)
	}
	return out
}

func edgesBytes(g *graph.Graph) []byte {
	var out []byte
	for _, e := range g.Edges() {
		out = binary.LittleEndian.AppendUint32(out, uint32(e[0]))
		out = binary.LittleEndian.AppendUint32(out, uint32(e[1]))
	}
	return out
}

func TestGoldenPayloads(t *testing.T) {
	got := map[string]string{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Sets of sets: the three one-round payloads.
	alice, _ := workload.PlantedSetsOfSets(17, 200, 10, 1<<32, 16)
	p := core.Params{S: 200, H: 16, U: 1 << 32}
	for _, tc := range []struct {
		name string
		kind core.DigestKind
		d    int
	}{{"core/naive", core.DigestNaive, 16}, {"core/nested", core.DigestNested, 16}, {"core/cascade", core.DigestCascade, 32}} {
		msg, err := core.AliceMsg(tc.kind, hashing.NewCoins(42), alice, p, tc.d, core.DHat(tc.d, p.S))
		must(err)
		got[tc.name] = sha(msg)
	}

	// Multisets of multisets: inner packing, grouping and child order.
	src := prng.New(23)
	inner := make([][]uint64, 300)
	for i := range inner {
		// A few distinct shapes, so parent-level multiplicities exceed one.
		shape := src.Intn(40)
		s2 := prng.New(uint64(shape))
		for k := 1 + s2.Intn(6); k > 0; k-- {
			inner[i] = append(inner[i], s2.Uint64n(50))
		}
	}
	mp, err := core.EncodeMultisetParent(inner)
	must(err)
	got["core/multiset-parent"] = sha(setsBytes(mp))

	// Plain sets: char-poly evaluations, multiset packing, root order.
	var set []uint64
	for len(set) < 2000 {
		set = append(set, src.Uint64n(1<<59))
	}
	got["setrecon/charpoly"] = sha(setrecon.EncodeCharPoly(setutil.Canonical(set), 17))
	var ms []uint64
	for len(ms) < 3000 {
		ms = append(ms, src.Uint64n(900))
	}
	packed, err := setrecon.MultisetToSet(ms)
	must(err)
	got["setrecon/multiset"] = sha(wordsBytes(packed))
	roots, err := field.Roots(field.FromRoots(setutil.Canonical(set)[:16]), 99)
	must(err)
	got["field/roots-order"] = sha(wordsBytes(roots))

	// Degree ordering (§5.1): both payloads and Bob's labelled result.
	gsrc := prng.New(31)
	base, h, err := graphrecon.PlantedSeparated(480, 2, 0.4, gsrc)
	must(err)
	ga, _ := graph.Perturb(base, 1, gsrc)
	gb, _ := graph.Perturb(base, 1, gsrc)
	dp := graphrecon.DegreeOrderParams{H: h, D: 2}
	dm, err := graphrecon.DegreeOrderAlice(hashing.NewCoins(7), ga, dp)
	must(err)
	got["graphrecon/degree-sig"], got["graphrecon/degree-edges"] = sha(dm.Sig), sha(dm.Edges)
	rec, err := graphrecon.DegreeOrderApply(hashing.NewCoins(7), gb, dp, dm.Sig, dm.Edges)
	must(err)
	got["graphrecon/degree-result"] = sha(edgesBytes(rec))

	// Degree neighbourhood (§5.2).
	var na, nb *graph.Graph
	for {
		nb = graph.Gnp(128, 0.5, gsrc)
		if graphrecon.MinNeighborhoodDisjointness(nb, 96) >= 9 {
			na, _ = graph.Perturb(nb, 1, gsrc)
			break
		}
	}
	np := graphrecon.NeighborhoodParams{M: 96, D: 1}
	sideA, err := graphrecon.NeighborhoodEncode(na, np.M)
	must(err)
	sideB, err := graphrecon.NeighborhoodEncode(nb, np.M)
	must(err)
	maxSig := max(sideA.MaxSig, sideB.MaxSig)
	nm, err := graphrecon.NeighborhoodAlice(hashing.NewCoins(8), na, np, sideA, maxSig)
	must(err)
	got["graphrecon/nbr-sig"], got["graphrecon/nbr-edges"] = sha(nm.Sig), sha(nm.Edges)
	nrec, err := graphrecon.NeighborhoodApply(hashing.NewCoins(8), nb, np, sideB, maxSig, nm.Sig, nm.Edges)
	must(err)
	got["graphrecon/nbr-result"] = sha(edgesBytes(nrec))

	// Forests (§6). Bob's rebuilt forest is only defined up to isomorphism,
	// so it is checked, not hashed.
	fa := forest.Random(600, 0.2, prng.New(41))
	fb := forest.Perturb(fa, 3, prng.New(43))
	rp, params := forest.Plan(forest.Measure(fa), forest.Measure(fb), forest.ReconParams{D: 3, Sigma: 16})
	sig, meta, err := forest.AliceMsg(hashing.NewCoins(9), fa, rp, params)
	must(err)
	got["forest/sig"], got["forest/meta"] = sha(sig), sha(meta)
	frec, err := forest.Apply(hashing.NewCoins(9), fb, rp, params, sig, meta)
	must(err)
	if !forest.IsIsomorphic(frec, fa) {
		t.Fatal("forest: Bob's rebuilt forest is not isomorphic to Alice's")
	}

	if os.Getenv("SOSR_GOLDEN_PRINT") != "" {
		for k, v := range got {
			t.Logf("GOLDEN\t%q: %q,", k, v)
		}
		return
	}
	if len(got) != len(goldenPayloads) {
		t.Fatalf("computed %d payload hashes, golden table has %d", len(got), len(goldenPayloads))
	}
	for k, want := range goldenPayloads {
		if got[k] != want {
			t.Errorf("%s: payload hash %s, golden %s", k, got[k], want)
		}
	}
}
