package sosr_test

import (
	"fmt"

	"sosr"
)

// The simplest use: Bob recovers Alice's set, paying bytes proportional to
// the difference.
func ExampleReconcileSets() {
	alice := []uint64{1, 2, 3, 4, 99}
	bob := []uint64{1, 2, 3, 4, 50}
	res, err := sosr.ReconcileSets(alice, bob, sosr.SetConfig{Seed: 7, KnownDiff: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered:", res.Recovered)
	fmt.Println("alice-only:", res.OnlyA, "bob-only:", res.OnlyB)
	// Output:
	// recovered: [1 2 3 4 99]
	// alice-only: [99] bob-only: [50]
}

// Sets of sets: the paper's primary contribution. The cascading protocol
// reconciles in one round with communication driven by d, not data size.
func ExampleReconcileSetsOfSets() {
	bob := [][]uint64{{1, 2, 3}, {10, 20}}
	alice := [][]uint64{{1, 2, 3}, {10, 20, 21}}
	res, err := sosr.ReconcileSetsOfSets(alice, bob, sosr.Config{Seed: 9, KnownDiff: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("child sets to add:", res.Added)
	fmt.Println("child sets to drop:", res.Removed)
	fmt.Println("rounds:", res.Stats.Rounds)
	// Output:
	// child sets to add: [[10 20 21]]
	// child sets to drop: [[10 20]]
	// rounds: 1
}

// Forest reconciliation: Bob recovers a forest isomorphic to Alice's.
func ExampleReconcileForests() {
	alice := sosr.Forest{Parent: []int32{-1, 0, 0, 1}} // one tree
	bob := sosr.Forest{Parent: []int32{-1, 0, 0, -1}}  // the deep leaf detached
	res, err := sosr.ReconcileForests(alice, bob, sosr.ForestConfig{Seed: 5, MaxEdits: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("isomorphic:", sosr.ForestsIsomorphic(res.Recovered, alice))
	// Output:
	// isomorphic: true
}

// Multisets (§3.4): children with repeated elements.
func ExampleReconcileSetsOfMultisets() {
	alice := [][]uint64{{5, 5, 5}}
	bob := [][]uint64{{5, 5}}
	res, err := sosr.ReconcileSetsOfMultisets(alice, bob, sosr.Config{Seed: 6, KnownDiff: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered:", res.Recovered)
	// Output:
	// recovered: [[5 5 5]]
}
