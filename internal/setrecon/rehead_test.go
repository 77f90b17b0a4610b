package setrecon

import (
	"bytes"
	"strings"
	"testing"
)

// TestApplyIBLTMsgRefusesReheadedTable: Alice's Corollary 2.2 table carries
// the hash count and seed the public coins fix. The same valid payload
// re-headed with k = cells, which would have each of Bob's elements hashed k
// times, or with a foreign seed is refused at the parse.
func TestApplyIBLTMsgRefusesReheadedTable(t *testing.T) {
	c := newWorkCase(5, 2000, 16)
	if _, err := ApplyIBLTMsg(c.coins, c.iblt, c.bob); err != nil {
		t.Fatal(err)
	}
	kCells := bytes.Clone(c.iblt)
	copy(kCells[0:4], c.iblt[4:8])
	foreign := bytes.Clone(c.iblt)
	foreign[12] ^= 1
	for name, bad := range map[string][]byte{"k = cells": kCells, "foreign seed": foreign} {
		_, err := ApplyIBLTMsg(c.coins, bad, c.bob)
		if err == nil || !strings.Contains(err.Error(), "iblt: table of k=") {
			t.Errorf("%s: err = %v, want the header refused", name, err)
		}
	}
}
