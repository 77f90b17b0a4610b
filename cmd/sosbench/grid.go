package main

import "sosr"

// entry is the public entry point a row calls, on instances draw builds.
type entry int

const (
	setsOfSets      entry = iota // sosr.ReconcileSetsOfSets: a binary database and d bits flipped
	setsOfMultisets              // sosr.ReconcileSetsOfMultisets: the same, half of each row repeated
	sets                         // sosr.ReconcileSets: n shared elements, d more split between the sides
	multisets                    // sosr.ReconcileMultisets: the same, each element 1–3 times
	graphs                       // sosr.ReconcileGraphs: d edge edits of a base graph, split between the sides
	isomorphism                  // sosr.GraphsIsomorphic: the same, Bob's copy relabelled
	forests                      // sosr.ReconcileForests: d edits of a random forest
)

// row is one configuration, measured at each d on instances drawn from the
// seed, coins per instance (times -trials). charPoly selects Theorem 2.3;
// blind hides d (the unknown-d variant runs). s, h, u shape sets of sets, n
// the other entries; replicas is Config.Replicas.
type row struct {
	name                                string
	entry                               entry
	proto                               sosr.Protocol
	scheme                              sosr.GraphScheme
	charPoly, blind                     bool
	s, h, n, replicas, instances, coins int
	u                                   uint64
	ds                                  []int
}

// group is an -experiment: a function, or rows and a note printed under them.
type group struct {
	name, note string
	run        func(*bench)
	rows       []row
}

var dsTable1, dsSets, dsCrossover = []int{2, 4, 8, 16}, []int{4, 32, 256}, []int{2, 4, 8, 16, 32, 64}

// grid is every experiment, in the order -experiment all runs them. Rows of
// one shape meet the same instances and coins at a d, so replica 0 of a
// Replicas: 3 row is the Replicas: 1 row's session.
var grid = []group{
	{name: "table1", rows: []row{
		{name: "naive (Thm 3.3)", entry: setsOfSets, proto: sosr.ProtocolNaive, s: 48, h: 16384, u: 16384, ds: dsTable1, replicas: 1, instances: 3, coins: 2},
		{name: "nested (Thm 3.5)", entry: setsOfSets, proto: sosr.ProtocolNested, s: 48, h: 16384, u: 16384, ds: dsTable1, replicas: 1, instances: 3, coins: 2},
		{name: "cascade (Thm 3.7)", entry: setsOfSets, proto: sosr.ProtocolCascade, s: 48, h: 16384, u: 16384, ds: dsTable1, replicas: 1, instances: 3, coins: 2},
		{name: "multiround (Thm 3.9)", entry: setsOfSets, proto: sosr.ProtocolMultiRound, s: 48, h: 16384, u: 16384, ds: dsTable1, replicas: 1, instances: 3, coins: 2},
		{name: "naive list (u=2^40)", entry: setsOfSets, proto: sosr.ProtocolNaive, s: 48, h: 16384, u: 1 << 40, ds: dsTable1, replicas: 1, instances: 3, coins: 2},
		{name: "naive", entry: setsOfSets, proto: sosr.ProtocolNaive, s: 16, h: 1024, u: 1024, ds: dsTable1, replicas: 1, instances: 20, coins: 50},
		{name: "nested", entry: setsOfSets, proto: sosr.ProtocolNested, s: 16, h: 1024, u: 1024, ds: dsTable1, replicas: 1, instances: 20, coins: 50},
		{name: "cascade", entry: setsOfSets, proto: sosr.ProtocolCascade, s: 16, h: 1024, u: 1024, ds: dsTable1, replicas: 1, instances: 20, coins: 50},
		{name: "multiround", entry: setsOfSets, proto: sosr.ProtocolMultiRound, s: 16, h: 1024, u: 1024, ds: dsTable1, replicas: 1, instances: 20, coins: 50},
		{name: "naive ×3", entry: setsOfSets, proto: sosr.ProtocolNaive, s: 16, h: 1024, u: 1024, ds: dsTable1, replicas: 3, instances: 20, coins: 50},
		{name: "nested ×3", entry: setsOfSets, proto: sosr.ProtocolNested, s: 16, h: 1024, u: 1024, ds: dsTable1, replicas: 3, instances: 20, coins: 50},
		{name: "cascade ×3", entry: setsOfSets, proto: sosr.ProtocolCascade, s: 16, h: 1024, u: 1024, ds: dsTable1, replicas: 3, instances: 20, coins: 50},
		{name: "multiround ×3", entry: setsOfSets, proto: sosr.ProtocolMultiRound, s: 16, h: 1024, u: 1024, ds: dsTable1, replicas: 3, instances: 20, coins: 50},
	}, note: "The paper orders naive > nested > cascade > multiround at large u and small d; README \"Performance\" says where these rows differ."},
	{name: "figure1", run: (*bench).figure1}, {name: "iblt", run: (*bench).iblt},
	{name: "sets", rows: []row{
		{name: "IBLT (Cor 2.2)", entry: sets, n: 1 << 14, ds: dsSets, instances: 5, coins: 1},
		{name: "charpoly (Thm 2.3)", entry: sets, charPoly: true, n: 1 << 14, ds: dsSets[:2], instances: 5, coins: 1}, // cubic root finding
		{name: "estimator+IBLT (Cor 3.2)", entry: sets, blind: true, n: 1 << 14, ds: dsSets, instances: 5, coins: 1},
		{name: "multiset (§3.4)", entry: multisets, n: 2000, ds: []int{8}, instances: 5, coins: 1},
		{name: "sets of multisets (§3.4)", entry: setsOfMultisets, proto: sosr.ProtocolCascade, s: 16, h: 256, ds: []int{2, 8}, replicas: 1, instances: 5, coins: 1},
	}, note: "Sets and multisets are sized by sosr.SetDifference, sets of multisets by 2 × sosr.SetsOfMultisetsDistance."},
	{name: "estimator", run: (*bench).estimator},
	{name: "crossover", rows: []row{
		{name: "nested", entry: setsOfSets, proto: sosr.ProtocolNested, s: 96, h: 96, u: 96, ds: dsCrossover, replicas: 1, instances: 5, coins: 1},
		{name: "cascade", entry: setsOfSets, proto: sosr.ProtocolCascade, s: 96, h: 96, u: 96, ds: dsCrossover, replicas: 1, instances: 5, coins: 1},
	}, note: "Theorem 3.5 is O(d̂·d log u); Theorem 3.7 is O(d log d log u): cascade wins once d is large."},
	{name: "unknownd", rows: []row{
		{name: "naive estimator (Thm 3.4)", entry: setsOfSets, proto: sosr.ProtocolNaive, blind: true, s: 48, h: 16384, u: 16384, ds: []int{12}, instances: 5, coins: 1},
		{name: "nested doubling (Cor 3.6)", entry: setsOfSets, proto: sosr.ProtocolNested, blind: true, s: 48, h: 16384, u: 16384, ds: []int{12}, instances: 5, coins: 1},
		{name: "cascade doubling (Cor 3.8)", entry: setsOfSets, proto: sosr.ProtocolCascade, blind: true, s: 48, h: 16384, u: 16384, ds: []int{12}, instances: 5, coins: 1},
		{name: "multiround 4-round (Thm 3.10)", entry: setsOfSets, proto: sosr.ProtocolMultiRound, blind: true, s: 48, h: 16384, u: 16384, ds: []int{12}, instances: 5, coins: 1},
	}, note: "d is hidden from the protocols."},
	{name: "graphs", rows: []row{
		{name: "polynomial (Thm 4.3)", entry: graphs, scheme: sosr.SchemePolynomial, n: 6, ds: []int{2}, instances: 5, coins: 1},
		{name: "isomorphism (Thm 4.1)", entry: isomorphism, scheme: sosr.SchemePolynomial, n: 6, ds: []int{0, 1}, instances: 5, coins: 1},
		{name: "degree ordering (Thm 5.2)", entry: graphs, scheme: sosr.SchemeDegreeOrdering, n: 480, ds: []int{2}, instances: 5, coins: 1},
		{name: "degree ordering (Thm 5.2)", entry: graphs, scheme: sosr.SchemeDegreeOrdering, n: 960, ds: []int{2}, instances: 5, coins: 1},
	}, note: "Theorem 5.2: O(d(log d log h + log n)) bits — constant in n, far below shipping the edges."},
	{name: "separation", run: (*bench).separation},
	{name: "neighborhood", rows: []row{
		{name: "degree neighborhood (Thm 5.6)", entry: graphs, scheme: sosr.SchemeDegreeNeighborhood, n: 128, ds: []int{1}, instances: 5, coins: 1},
		{name: "degree neighborhood (Thm 5.6)", entry: graphs, scheme: sosr.SchemeDegreeNeighborhood, n: 256, ds: []int{2}, instances: 5, coins: 1},
	}, note: "Theorem 5.6 costs ~O(dpn·polylog) bits — heavier than §5.1 but valid at honest laptop-scale n, for d ≤ (disjoint − 1)/8."},
	{name: "forest", rows: []row{
		{name: "bound d (Thm 6.1)", entry: forests, n: 200, ds: []int{3}, instances: 5, coins: 1},
		{name: "doubling", entry: forests, blind: true, n: 200, ds: []int{3}, instances: 5, coins: 1},
		{name: "bound d (Thm 6.1)", entry: forests, n: 600, ds: []int{3}, instances: 5, coins: 1},
		{name: "doubling", entry: forests, blind: true, n: 600, ds: []int{3}, instances: 5, coins: 1},
		{name: "bound d (Thm 6.1)", entry: forests, n: 1800, ds: []int{3}, instances: 5, coins: 1},
		{name: "doubling", entry: forests, blind: true, n: 1800, ds: []int{3}, instances: 5, coins: 1},
	}, note: "Theorem 6.1: O(dσ log(dσ) log n) bits — driven by d·σ, nearly flat in n."},
}
