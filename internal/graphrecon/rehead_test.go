package graphrecon

import (
	"bytes"
	"strings"
	"testing"

	"sosr/internal/hashing"
)

// TestEdgeReconRefusesReheadedTable: the edge IBLT both §5 protocols close
// with carries the hash count and seed the public coins fix. The same valid
// payload re-headed with k = cells, which would have every one of Bob's
// labelled edges hashed k times, or with a foreign seed is refused at the
// parse.
func TestEdgeReconRefusesReheadedTable(t *testing.T) {
	ga, gb, h := sampleDegreeOrderPair(t, 480, 0.4, 2, 67)
	p := DegreeOrderParams{H: h, D: 2}
	coins := hashing.NewCoins(68)
	msgs, err := DegreeOrderAlice(coins, ga, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DegreeOrderApply(coins, gb, p, msgs.Sig, msgs.Edges); err != nil {
		t.Fatal(err)
	}
	kCells := bytes.Clone(msgs.Edges)
	copy(kCells[0:4], msgs.Edges[4:8])
	foreign := bytes.Clone(msgs.Edges)
	foreign[12] ^= 1
	for name, bad := range map[string][]byte{"k = cells": kCells, "foreign seed": foreign} {
		_, err := DegreeOrderApply(coins, gb, p, msgs.Sig, bad)
		if err == nil || !strings.Contains(err.Error(), "iblt: table of k=") {
			t.Errorf("%s: err = %v, want the header refused", name, err)
		}
	}
}
