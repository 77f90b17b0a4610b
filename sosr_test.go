package sosr

import (
	"errors"
	"testing"

	"sosr/internal/core"
	"sosr/internal/prng"
	"sosr/internal/workload"
)

func TestReconcileSetsKnownD(t *testing.T) {
	alice := []uint64{1, 2, 3, 4, 100}
	bob := []uint64{1, 2, 3, 4, 200, 300}
	res, err := ReconcileSets(alice, bob, SetConfig{Seed: 1, KnownDiff: 3})
	if err != nil {
		t.Fatal(err)
	}
	if SetDifference(res.Recovered, alice) != 0 {
		t.Fatal("wrong recovery")
	}
	if len(res.OnlyA) != 1 || len(res.OnlyB) != 2 {
		t.Fatalf("diff %v / %v", res.OnlyA, res.OnlyB)
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("rounds %d", res.Stats.Rounds)
	}
}

func TestReconcileSetsUnknownD(t *testing.T) {
	var alice, bob []uint64
	for x := uint64(0); x < 5000; x++ {
		alice = append(alice, x)
		bob = append(bob, x)
	}
	alice = append(alice, 999999, 888888)
	res, err := ReconcileSets(alice, bob, SetConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if SetDifference(res.Recovered, alice) != 0 {
		t.Fatal("wrong recovery")
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds %d", res.Stats.Rounds)
	}
}

func TestReconcileSetsCharPoly(t *testing.T) {
	alice := []uint64{5, 10, 15}
	bob := []uint64{5, 10, 20}
	res, err := ReconcileSets(alice, bob, SetConfig{Seed: 3, KnownDiff: 2, UseCharPoly: true})
	if err != nil {
		t.Fatal(err)
	}
	if SetDifference(res.Recovered, alice) != 0 {
		t.Fatal("wrong recovery")
	}
	if _, err := ReconcileSets(alice, bob, SetConfig{Seed: 3, UseCharPoly: true}); err == nil {
		t.Fatal("charpoly without bound accepted")
	}
}

func TestReconcileMultisets(t *testing.T) {
	alice := []uint64{7, 7, 7, 9}
	bob := []uint64{7, 7, 9, 9}
	got, stats, err := ReconcileMultisets(alice, bob, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for _, x := range got {
		counts[x]++
	}
	if counts[7] != 3 || counts[9] != 1 {
		t.Fatalf("recovered %v", got)
	}
	if stats.Rounds != 1 {
		t.Fatalf("rounds %d", stats.Rounds)
	}
}

func TestReconcileSetsOfSetsAllProtocols(t *testing.T) {
	alice, bob := workload.PlantedSetsOfSets(71, 20, 24, 1<<40, 8)
	d := SetsOfSetsDistance(alice, bob)
	if d != 8 {
		t.Fatalf("planted distance %d", d)
	}
	for _, proto := range []Protocol{ProtocolNaive, ProtocolNested, ProtocolCascade, ProtocolMultiRound} {
		res, err := ReconcileSetsOfSets(alice, bob, Config{
			Seed: 5, MaxChildSets: 20, MaxChildSize: 24, Protocol: proto, KnownDiff: d, Validate: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if SetsOfSetsDistance(res.Recovered, alice) != 0 {
			t.Fatalf("%v: wrong recovery", proto)
		}
		if res.Protocol != proto {
			t.Fatalf("%v: protocol mismatch", proto)
		}
	}
}

func TestReconcileSetsOfSetsUnknownD(t *testing.T) {
	alice, bob := workload.PlantedSetsOfSets(81, 16, 16, 1<<40, 5)
	for _, proto := range []Protocol{ProtocolNaive, ProtocolNested, ProtocolCascade, ProtocolMultiRound} {
		res, err := ReconcileSetsOfSets(alice, bob, Config{
			Seed: 6, MaxChildSets: 16, MaxChildSize: 16, Protocol: proto,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if SetsOfSetsDistance(res.Recovered, alice) != 0 {
			t.Fatalf("%v: wrong recovery", proto)
		}
	}
}

func TestReconcileSetsOfSetsAutoAndDefaults(t *testing.T) {
	alice, bob := workload.PlantedSetsOfSets(91, 10, 12, 1<<40, 3)
	// No shape hints at all: derived from inputs.
	res, err := ReconcileSetsOfSets(alice, bob, Config{Seed: 7, KnownDiff: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != ProtocolCascade {
		t.Fatalf("auto picked %v", res.Protocol)
	}
	if SetsOfSetsDistance(res.Recovered, alice) != 0 {
		t.Fatal("wrong recovery")
	}
	res2, err := ReconcileSetsOfSets(alice, bob, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Protocol != ProtocolMultiRound {
		t.Fatalf("auto unknown-d picked %v", res2.Protocol)
	}
}

func TestReconcileSetsOfSetsValidate(t *testing.T) {
	bad := [][]uint64{{2, 1}} // not canonical
	_, err := ReconcileSetsOfSets(bad, bad, Config{Seed: 1, Validate: true, KnownDiff: 1})
	if err == nil {
		t.Fatal("validation skipped")
	}
}

// TestTwoWayHonoursValidate: the two-way call runs the one-way call's
// dispatch, so Validate refuses a non-canonical child before any table is
// built, with the same error the one-way call returns.
func TestTwoWayHonoursValidate(t *testing.T) {
	alice := [][]uint64{{1, 2}, {4, 3}}
	bob := [][]uint64{{1, 2}}
	cfg := Config{Seed: 1, Validate: true, KnownDiff: 2, Protocol: ProtocolNaive}
	if _, err := ReconcileSetsOfSets(alice, bob, cfg); !errors.Is(err, core.ErrInvalidInstance) {
		t.Fatalf("one-way: err = %v, want ErrInvalidInstance", err)
	}
	if _, err := ReconcileSetsOfSetsTwoWay(alice, bob, cfg); !errors.Is(err, core.ErrInvalidInstance) {
		t.Fatalf("two-way: err = %v, want ErrInvalidInstance", err)
	}
}

// TestReconcileSetsOfSetsUndersizedShape: a shape bound set below either
// party's data is refused as core.ErrInvalidInstance with Validate off — the
// naive protocol used to index past its fixed-width key — by every protocol,
// known d or not, and by the entry points that share the shape; bounds left
// zero are derived from the data as before.
func TestReconcileSetsOfSetsUndersizedShape(t *testing.T) {
	alice := [][]uint64{{1, 2, 3, 4, 5, 6}, {10, 11}}
	bob := [][]uint64{{1, 2, 3, 4, 5}, {10, 11}}
	shapes := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"child-size", Config{MaxChildSize: 3}, false},
		{"child-size-alice-only", Config{MaxChildSize: 5}, false},
		{"child-sets", Config{MaxChildSets: 1}, false},
		{"both", Config{MaxChildSets: 1, MaxChildSize: 3}, false},
		{"exact", Config{MaxChildSets: 2, MaxChildSize: 6}, true},
		{"derived", Config{}, true},
	}
	for _, proto := range []Protocol{ProtocolNaive, ProtocolNested, ProtocolCascade, ProtocolMultiRound} {
		for _, d := range []int{0, 4} {
			for _, sh := range shapes {
				cfg := sh.cfg
				cfg.Seed, cfg.Protocol, cfg.KnownDiff = 5, proto, d
				res, err := ReconcileSetsOfSets(alice, bob, cfg)
				switch {
				case sh.ok && (err != nil || SetsOfSetsDistance(res.Recovered, alice) != 0):
					t.Errorf("%v d=%d %s: err %v", proto, d, sh.name, err)
				case !sh.ok && !errors.Is(err, core.ErrInvalidInstance):
					t.Errorf("%v d=%d %s: err = %v, want ErrInvalidInstance", proto, d, sh.name, err)
				}
			}
		}
	}
	small := Config{Seed: 5, Protocol: ProtocolNaive, KnownDiff: 4, MaxChildSize: 3}
	if _, err := ReconcileSetsOfSetsTwoWay(alice, bob, small); !errors.Is(err, core.ErrInvalidInstance) {
		t.Errorf("two-way: err = %v, want ErrInvalidInstance", err)
	}
	if _, err := BuildDigest(alice, small); !errors.Is(err, core.ErrInvalidInstance) {
		t.Errorf("BuildDigest: err = %v, want ErrInvalidInstance", err)
	}
	fits := Config{Seed: 5, Protocol: ProtocolNaive, KnownDiff: 4, MaxChildSets: 2, MaxChildSize: 5}
	digest, err := BuildDigest(bob, fits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDigest(digest, alice, fits); !errors.Is(err, core.ErrInvalidInstance) {
		t.Errorf("ApplyDigest over a larger replica: err = %v, want ErrInvalidInstance", err)
	}
	groupsA, groupsB := [][][]uint64{alice, {{7}}}, [][][]uint64{bob}
	for _, cfg := range []Config3{{MaxGroups: 1}, {MaxChildSets: 1}, {MaxChildSize: 5}} {
		cfg.KnownDiff = 4
		if _, err := ReconcileSetsOfSetsOfSets(groupsA, groupsB, cfg); !errors.Is(err, core.ErrInvalidInstance) {
			t.Errorf("depth-3 %+v: err = %v, want ErrInvalidInstance", cfg, err)
		}
	}
	if _, err := ReconcileSetsOfSetsOfSets(groupsA, groupsB, Config3{KnownDiff: 12, MaxGroups: 2, MaxChildSets: 2, MaxChildSize: 6}); err != nil {
		t.Errorf("depth-3 exact shape: %v", err)
	}
}

func TestReconcileGraphsDegreeOrdering(t *testing.T) {
	base, h, err := PlantedSeparatedGraph(600, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ga := PerturbGraph(base, 1, 12)
	gb := PerturbGraph(base, 1, 13)
	res, err := ReconcileGraphs(ga, gb, GraphConfig{
		Seed: 14, Scheme: SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !GraphsExactlyIsomorphic(res.Recovered, ga) {
		t.Fatal("recovered graph not isomorphic")
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("rounds %d", res.Stats.Rounds)
	}
}

func TestReconcileGraphsNeighborhood(t *testing.T) {
	for attempt := 0; attempt < 30; attempt++ {
		base := RandomGraph(128, 0.5, uint64(attempt)*7+1)
		m := 96
		if NeighborhoodDisjointness(base, m) < 9 {
			continue
		}
		ga := PerturbGraph(base, 1, 21)
		res, err := ReconcileGraphs(ga, base, GraphConfig{
			Seed: 22, Scheme: SchemeDegreeNeighborhood, MaxEdits: 1, DegreeThreshold: m,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !GraphsExactlyIsomorphic(res.Recovered, ga) {
			t.Fatal("recovered graph not isomorphic")
		}
		return
	}
	t.Fatal("no disjoint base graph found")
}

func TestReconcileGraphsPolynomial(t *testing.T) {
	base := RandomGraph(6, 0.5, 31)
	gb := PerturbGraph(base, 2, 32)
	res, err := ReconcileGraphs(base, gb, GraphConfig{Seed: 33, Scheme: SchemePolynomial, MaxEdits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !GraphsExactlyIsomorphic(res.Recovered, base) {
		t.Fatal("recovered graph not isomorphic")
	}
}

func TestGraphsIsomorphicProtocol(t *testing.T) {
	g := RandomGraph(7, 0.5, 41)
	iso, stats, err := GraphsIsomorphic(g, g, 42)
	if err != nil || !iso {
		t.Fatalf("iso=%v err=%v", iso, err)
	}
	if stats.TotalBytes != 24 {
		t.Fatalf("bytes %d", stats.TotalBytes)
	}
	h := PerturbGraph(g, 1, 43)
	iso, _, err = GraphsIsomorphic(g, h, 42)
	if err != nil || iso {
		t.Fatalf("perturbed pair iso=%v err=%v", iso, err)
	}
}

func TestFigure1Example(t *testing.T) {
	w, err := FindFigure1Example(5)
	if err != nil {
		t.Fatal(err)
	}
	x := w.G1
	x.Edges = append(append([][2]int{}, x.Edges...), w.AddG1X)
	y := w.G1
	y.Edges = append(append([][2]int{}, y.Edges...), w.AddG1Y)
	if !GraphsExactlyIsomorphic(x, w.MergeX) || !GraphsExactlyIsomorphic(y, w.MergeY) {
		t.Fatal("witness merges wrong")
	}
	if GraphsExactlyIsomorphic(w.MergeX, w.MergeY) {
		t.Fatal("merge results isomorphic; not a witness")
	}
}

func TestReconcileForests(t *testing.T) {
	fa := RandomForest(120, 0.15, 51)
	fb := PerturbForest(fa, 3, 52)
	res, err := ReconcileForests(fa, fb, ForestConfig{Seed: 53, MaxEdits: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !ForestsIsomorphic(res.Recovered, fa) {
		t.Fatal("recovered forest not isomorphic")
	}
	if err := res.Recovered.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReconcileForestsAuto(t *testing.T) {
	fa := RandomForest(80, 0.2, 61)
	fb := PerturbForest(fa, 2, 62)
	res, err := ReconcileForests(fa, fb, ForestConfig{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	if !ForestsIsomorphic(res.Recovered, fa) {
		t.Fatal("recovered forest not isomorphic")
	}
}

func TestDatabaseWorkloadEndToEnd(t *testing.T) {
	// The §1 database application through the public API.
	db := workload.RandomDatabase(71, 64, 96, 0.3, nil)
	flipped := workload.FlipBits(db, 6, prngFor(72))
	res, err := ReconcileSetsOfSets(flipped.SetsOfSets(), db.SetsOfSets(), Config{
		Seed: 73, MaxChildSets: 64, MaxChildSize: 96, Universe: 96, KnownDiff: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if SetsOfSetsDistance(res.Recovered, flipped.SetsOfSets()) != 0 {
		t.Fatal("database reconciliation wrong")
	}
}

// prngFor builds a deterministic source for workload helpers in tests.
func prngFor(seed uint64) *prng.Source { return prng.New(seed) }
