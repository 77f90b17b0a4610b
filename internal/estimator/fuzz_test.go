package estimator

import (
	"testing"

	"sosr/internal/prng"
)

// Robustness: corrupt or hostile serialized sketches must never panic or
// trigger giant allocations.

func TestUnmarshalCorruptionNeverPanics(t *testing.T) {
	src := prng.New(1)
	e := New(Params{Levels: 10}, 5)
	for i := uint64(0); i < 100; i++ {
		e.Add(i, SideA)
	}
	buf := e.Marshal()
	for trial := 0; trial < 300; trial++ {
		corrupt := append([]byte(nil), buf...)
		for f := 0; f <= src.Intn(6); f++ {
			corrupt[src.Intn(len(corrupt))] ^= byte(1 + src.Intn(255))
		}
		if back, err := Unmarshal(corrupt); err == nil {
			_ = back.Estimate()
		}
	}
}

func TestUnmarshalHostileHeader(t *testing.T) {
	hostile := make([]byte, 64)
	for i := 0; i < 16; i++ {
		hostile[i] = 0x7f // huge Levels/Buckets/Subreplicas/Replicas
	}
	if _, err := Unmarshal(hostile); err == nil {
		t.Fatal("hostile estimator header accepted")
	}
}

func TestUnmarshalStrataHostileHeader(t *testing.T) {
	hostile := make([]byte, 64)
	for i := 0; i < 8; i++ {
		hostile[i] = 0x7f // huge strata count and cells
	}
	if _, err := UnmarshalStrata(hostile); err == nil {
		t.Fatal("hostile strata header accepted")
	}
}

func TestUnmarshalStrataCorruptionNeverPanics(t *testing.T) {
	src := prng.New(2)
	s := NewStrata(8, 20, 3)
	for i := uint64(0); i < 40; i++ {
		s.Add(i, SideA)
	}
	buf := s.Marshal()
	for trial := 0; trial < 300; trial++ {
		corrupt := append([]byte(nil), buf...)
		for f := 0; f <= src.Intn(6); f++ {
			corrupt[src.Intn(len(corrupt))] ^= byte(1 + src.Intn(255))
		}
		if back, err := UnmarshalStrata(corrupt); err == nil {
			_ = back.Estimate()
		}
	}
}

func TestUnmarshalRandomGarbage(t *testing.T) {
	src := prng.New(3)
	for trial := 0; trial < 300; trial++ {
		n := src.Intn(200)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(src.Uint64())
		}
		if e, err := Unmarshal(buf); err == nil {
			_ = e.Estimate()
		}
		if s, err := UnmarshalStrata(buf); err == nil {
			_ = s.Estimate()
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(Params{}, 1)
	a.Add(5, SideA)
	b := a.Clone()
	b.Add(6, SideA)
	b.Add(7, SideA)
	if a.Estimate() == b.Estimate() && b.Estimate() != 0 {
		// Estimates could coincide; check the underlying words differ.
		same := true
		for i := range a.words {
			if a.words[i] != b.words[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("clone aliases parent's buckets")
		}
	}
}

// TestCopyFromMatchesCloneWithoutAllocating: the scratch form of Clone used
// by one-against-many merge loops gives the same estimates as a fresh clone,
// leaves its source untouched, retargets across parameter sets, and — once
// its storage has grown — allocates nothing, Estimate included.
func TestCopyFromMatchesCloneWithoutAllocating(t *testing.T) {
	params := CompactParams(64)
	base := New(params, 9)
	for x := uint64(0); x < 40; x++ {
		base.Add(x, SideA)
	}
	others := make([]*Estimator, 6)
	for i := range others {
		others[i] = New(params, 9)
		for x := uint64(i); x < 40+uint64(3*i); x++ {
			others[i].Add(x, SideB)
		}
	}
	before := base.Marshal()
	var scratch Estimator
	scratch.CopyFrom(New(Params{}, 1)) // a larger, unrelated shape first
	for _, o := range others {
		want := base.Clone()
		if err := want.Merge(o); err != nil {
			t.Fatal(err)
		}
		scratch.CopyFrom(base)
		if err := scratch.Merge(o); err != nil {
			t.Fatal(err)
		}
		if got := scratch.Estimate(); got != want.Estimate() {
			t.Fatalf("scratch estimate %d, clone estimate %d", got, want.Estimate())
		}
	}
	if string(base.Marshal()) != string(before) {
		t.Fatal("merging into the scratch copy changed its source")
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, o := range others {
			scratch.CopyFrom(base)
			_ = scratch.Merge(o)
			_ = scratch.Estimate()
		}
	}); n != 0 {
		t.Fatalf("copy+merge+estimate allocates %.1f per run", n)
	}
}
