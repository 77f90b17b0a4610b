package estimator

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"sosr/internal/prng"
)

// TestResetMatchesNew: an estimator reused through Reset — across shapes and
// seeds, larger and smaller — is word for word and byte for byte the one New
// builds, and a warm Reset allocates nothing.
func TestResetMatchesNew(t *testing.T) {
	src := prng.New(0x7e5e7)
	var reused Estimator
	for _, p := range []Params{CompactParams(20), {}, CompactParams(400), CompactParams(20)} {
		seed := src.Uint64()
		fresh := New(p, seed)
		reused.Reset(p, seed)
		for i := 0; i < 300; i++ {
			x, side := src.Uint64(), Side(1+i%2)
			fresh.Add(x, side)
			reused.Add(x, side)
		}
		if !bytes.Equal(fresh.Marshal(), reused.Marshal()) || fresh.Estimate() != reused.Estimate() {
			t.Fatalf("params %+v: a Reset estimator differs from a New one", p)
		}
		if got := reused.AppendMarshal([]byte("prefix")); !bytes.Equal(got[6:], fresh.Marshal()) || string(got[:6]) != "prefix" {
			t.Fatalf("params %+v: AppendMarshal is not prefix + Marshal", p)
		}
	}
	if n := testing.AllocsPerRun(20, func() { reused.Reset(CompactParams(20), 9) }); n != 0 {
		t.Fatalf("a warm Reset allocates %.0f objects", n)
	}
}

// TestMergeMarshaledMatchesMerge: folding an encoding in is Merge(Unmarshal),
// refuses what Merge refuses, and leaves e alone when it refuses.
func TestMergeMarshaledMatchesMerge(t *testing.T) {
	src := prng.New(0x3e59e)
	p := CompactParams(64)
	a, b := New(p, 5), New(p, 5)
	for i := 0; i < 200; i++ {
		a.Add(src.Uint64(), SideA)
		b.Add(src.Uint64(), SideB)
	}
	enc := b.Marshal()
	viaMerge, viaBytes := a.Clone(), a.Clone()
	back, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := viaMerge.Merge(back); err != nil {
		t.Fatal(err)
	}
	if err := viaBytes.MergeMarshaled(append(enc, 0xff)); err != nil { // trailing bytes are the caller's framing
		t.Fatal(err)
	}
	if !slices.Equal(viaMerge.words, viaBytes.words) {
		t.Fatal("MergeMarshaled differs from Merge(Unmarshal)")
	}
	if n := testing.AllocsPerRun(20, func() { _ = viaBytes.MergeMarshaled(enc) }); n != 0 {
		t.Fatalf("MergeMarshaled allocates %.0f objects", n)
	}
	before := slices.Clone(a.words)
	for name, bad := range map[string][]byte{
		"other seed":   New(p, 6).Marshal(),
		"other shape":  New(CompactParams(4096), 5).Marshal(),
		"truncated":    enc[:len(enc)-1],
		"header only":  enc[:24],
		"empty":        nil,
		"zero header":  make([]byte, len(enc)), // defaults to the 44-level shape
		"huge header":  append(bytes.Repeat([]byte{0xff}, 16), enc[16:]...),
		"short header": enc[:10],
	} {
		if err := a.MergeMarshaled(bad); !errors.Is(err, ErrIncompatible) {
			t.Errorf("%s: err = %v, want ErrIncompatible", name, err)
		}
		if !slices.Equal(a.words, before) {
			t.Fatalf("%s: a refused merge changed the estimator", name)
		}
	}
}
