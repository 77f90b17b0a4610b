package sosr

import (
	"testing"

	"sosr/internal/setutil"
	"sosr/internal/workload"
)

func TestReconcileSetsOfSetsOfSets(t *testing.T) {
	bob := [][][]uint64{
		{{1, 2}, {3, 4, 5}},
		{{10, 11}, {12}},
		{{20}, {21, 22}},
	}
	alice := [][][]uint64{
		{{1, 2}, {3, 4, 5}},
		{{10, 11}, {12, 13}}, // one element added
		{{20}, {21, 22}},
		{{30, 31}}, // whole new group
	}
	d := SetsOfSetsOfSetsDistance(alice, bob)
	if d != 3 {
		t.Fatalf("depth-3 distance = %d, want 3", d)
	}
	res, err := ReconcileSetsOfSetsOfSets(alice, bob, Config3{Seed: 17, KnownDiff: d})
	if err != nil {
		t.Fatal(err)
	}
	if SetsOfSetsOfSetsDistance(res.Recovered, alice) != 0 {
		t.Fatal("wrong depth-3 recovery")
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Stats.Rounds)
	}
	if len(res.AddedGroups) != 2 || len(res.RemovedGroups) != 1 {
		t.Fatalf("group diff %d/%d", len(res.AddedGroups), len(res.RemovedGroups))
	}
}

func TestReconcileSetsOfSetsOfSetsEqual(t *testing.T) {
	gp := [][][]uint64{{{1}, {2, 3}}, {{9, 10}}}
	res, err := ReconcileSetsOfSetsOfSets(gp, gp, Config3{Seed: 1, KnownDiff: 1})
	if err != nil {
		t.Fatal(err)
	}
	if SetsOfSetsOfSetsDistance(res.Recovered, gp) != 0 {
		t.Fatal("equal instances broke")
	}
}

func TestReconcileSetsOfSetsTwoWay(t *testing.T) {
	alice, bob := workload.PlantedSetsOfSets(31, 12, 16, 1<<40, 6)
	d := SetsOfSetsDistance(alice, bob)
	h := setutil.MaxChildLen(alice, bob) // a planted insertion grows a child past 16
	for _, proto := range []Protocol{ProtocolNested, ProtocolCascade, ProtocolMultiRound} {
		res, err := ReconcileSetsOfSetsTwoWay(alice, bob, Config{
			Seed: 3, MaxChildSets: 12, MaxChildSize: h, KnownDiff: d, Protocol: proto,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		// The union contains every child set from both sides.
		want := map[int]bool{}
		for i := range res.Union {
			_ = i
		}
		for _, side := range [][][]uint64{alice, bob} {
			for _, cs := range side {
				found := false
				for _, u := range res.Union {
					if SetDifference(u, cs) == 0 {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%v: union missing a child set", proto)
				}
			}
		}
		_ = want
		// The return leg adds exactly one round over the one-way run.
		oneWay, err := ReconcileSetsOfSets(alice, bob, Config{
			Seed: 3, MaxChildSets: 12, MaxChildSize: h, KnownDiff: d, Protocol: proto,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != oneWay.Stats.Rounds+1 {
			t.Fatalf("%v: rounds %d, one-way %d", proto, res.Stats.Rounds, oneWay.Stats.Rounds)
		}
	}
}

func TestReconcileSetsTwoWay(t *testing.T) {
	alice := []uint64{1, 2, 3, 50}
	bob := []uint64{1, 2, 3, 60, 70}
	union, stats, err := ReconcileSetsTwoWay(alice, bob, SetConfig{Seed: 5, KnownDiff: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 50, 60, 70}
	if SetDifference(union, want) != 0 {
		t.Fatalf("union = %v", union)
	}
	if stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", stats.Rounds)
	}
}

func TestTwoWayDisjointParents(t *testing.T) {
	alice := [][]uint64{{1, 2}}
	bob := [][]uint64{{5, 6, 7}}
	d := SetsOfSetsDistance(alice, bob)
	res, err := ReconcileSetsOfSetsTwoWay(alice, bob, Config{Seed: 9, KnownDiff: d, Protocol: ProtocolNested})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Union) != 2 {
		t.Fatalf("union size %d", len(res.Union))
	}
}
