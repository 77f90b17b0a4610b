// Forest reconciliation (paper §6): Alice and Bob hold rooted forests that
// differ by a few edge edits; Bob recovers a forest isomorphic to Alice's by
// reconciling AHU vertex signatures encoded as a multiset of multisets.
//
//	go run ./examples/forest
package main

import (
	"fmt"
	"log"

	"sosr"
)

func main() {
	const (
		n = 500
		d = 3 // edge edits (deletes make roots; inserts attach roots)
	)
	alice := sosr.RandomForest(n, 0.15, 21)
	bob := sosr.PerturbForest(alice, d, 22)
	sigma := alice.Depth()
	if s := bob.Depth(); s > sigma {
		sigma = s
	}
	fmt.Printf("forests: n=%d, depth σ=%d, %d edge edits apart\n", n, sigma, d)

	res, err := sosr.ReconcileForests(alice, bob, sosr.ForestConfig{
		Seed:     23,
		MaxEdits: d,
		Depth:    sigma,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("doubling capped at Theorem 6.1's budget: %d bytes, %d round(s)\n", res.Stats.TotalBytes, res.Stats.Rounds)
	if !sosr.ForestsIsomorphic(res.Recovered, alice) {
		log.Fatal("recovered forest is not isomorphic to Alice's")
	}
	if err := res.Recovered.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Bob now holds a rooted forest isomorphic to Alice's.")

	// Without a bound on d, the same doubling runs up to a budget of 2^20.
	res2, err := sosr.ReconcileForests(alice, bob, sosr.ForestConfig{Seed: 24})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unknown-d doubling: %d bytes, %d round(s)\n", res2.Stats.TotalBytes, res2.Stats.Rounds)
}
