package core

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/setrecon"
	"sosr/internal/transport"
)

func TestEncodeDecodeMultisetParent(t *testing.T) {
	inner := [][]uint64{
		{1, 1, 2},
		{1, 1, 2}, // duplicate of the first
		{5},
		{},
	}
	parent, err := new(MultisetParentWork).Encode(inner)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent) != 3 {
		t.Fatalf("distinct groups = %d, want 3", len(parent))
	}
	back, counts, err := new(MultisetParentWork).Decode(parent)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, ms := range back {
		total += counts[i]
		switch len(ms) {
		case 3:
			if counts[i] != 2 {
				t.Fatalf("duplicate group count = %d", counts[i])
			}
			if setrecon.MultisetSymDiff(ms, []uint64{1, 1, 2}) != 0 {
				t.Fatalf("group content %v", ms)
			}
		case 1:
			if counts[i] != 1 || ms[0] != 5 {
				t.Fatalf("singleton group %v x%d", ms, counts[i])
			}
		case 0:
			if counts[i] != 1 {
				t.Fatalf("empty group count %d", counts[i])
			}
		default:
			t.Fatalf("unexpected group %v", ms)
		}
	}
	if total != 4 {
		t.Fatalf("total inner multisets = %d", total)
	}
}

func TestMultTag(t *testing.T) {
	tag := MultTag(7)
	if k, ok := IsMultTag(tag); !ok || k != 7 {
		t.Fatal("tag round trip failed")
	}
	if _, ok := IsMultTag(42); ok {
		t.Fatal("plain element mistaken for tag")
	}
	// A regular packed (x, k) element must never read as a tag.
	packed, err := setrecon.MultisetToSet([]uint64{9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range packed {
		if _, ok := IsMultTag(x); ok {
			t.Fatal("packed element collides with tag space")
		}
	}
}

func TestMultisetDistance(t *testing.T) {
	a := [][]uint64{{1, 1}, {2}}
	ca := []int{1, 1}
	b := [][]uint64{{1, 1}, {2, 3}}
	cb := []int{1, 1}
	if got := MultisetDistance(a, b, ca, cb); got != 1 {
		t.Fatalf("distance = %d, want 1", got)
	}
	// Parent multiplicity differences flatten out.
	c := [][]uint64{{1, 1}}
	cc := []int{3}
	d := [][]uint64{{1, 1}}
	cd := []int{2}
	if got := MultisetDistance(c, d, cc, cd); got != 2 {
		t.Fatalf("multiplicity distance = %d, want 2", got)
	}
}

func TestReconcileMultisetOfMultisets(t *testing.T) {
	// End-to-end: encode two multiset-of-multisets, reconcile with the
	// cascading protocol, decode.
	aliceInner := [][]uint64{{1, 1, 2}, {1, 1, 2}, {7, 8}, {9}}
	bobInner := [][]uint64{{1, 1, 2}, {1, 1, 2}, {7, 8, 8}, {9}}
	alice, err := new(MultisetParentWork).Encode(aliceInner)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := new(MultisetParentWork).Encode(bobInner)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{S: 8, H: 16, U: 0}
	sess := transport.New()
	res, err := CascadeKnownD(sess, hashing.NewCoins(5), alice, bob, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	back, counts, err := new(MultisetParentWork).Decode(res.Recovered)
	if err != nil {
		t.Fatal(err)
	}
	if MultisetDistance(back, aliceInner, counts, []int{1, 1, 1, 1}) != 0 {
		t.Fatal("recovered multiset-of-multisets differs from Alice's")
	}
}
