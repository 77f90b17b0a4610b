package estimator

import (
	"encoding/binary"
	"slices"
	"testing"

	"sosr/internal/prng"
)

// Robustness: a corrupt or hostile serialized sketch folded in through
// MergeMarshaled, the one parser of a peer's estimator, must never panic,
// never allocate from its header, and leave the receiver unchanged when it is
// refused.

// mergeChecked folds buf into e and fails t unless a refused merge left e
// unchanged and an accepted one is the bucket-wise mod-4 sum of e's words and
// the encoding's, every padding bit clear.
func mergeChecked(t *testing.T, e *Estimator, buf []byte) error {
	t.Helper()
	before := slices.Clone(e.words)
	err := e.MergeMarshaled(buf)
	if err != nil {
		if !slices.Equal(e.words, before) {
			t.Fatalf("a refused merge (%v) changed the receiver", err)
		}
		return err
	}
	for i, w := range before {
		o := binary.LittleEndian.Uint64(buf[24+8*i:])
		for g := 0; g < groupsPerWord; g++ {
			sh := uint(groupBits * g)
			if got, want := e.words[i]>>sh&7, (w>>sh+o>>sh)&3; got != want {
				t.Fatalf("word %d bucket %d: merged %d, want (%d + %d) mod 4", i, g, got, w>>sh&3, o>>sh&3)
			}
		}
	}
	return nil
}

// receiver is an estimator of the given shape holding a few elements.
func receiver(p Params) *Estimator {
	e := New(p, 5)
	for x := uint64(0); x < 50; x++ {
		e.Add(x*3+1, SideA)
	}
	return e
}

// FuzzMergeMarshaled drives MergeMarshaled, which parses the estimator frames
// a session opens with (the set difference bound, the child-diff estimate and
// multi-round's L_B lists), into receivers of the child-diff shape and of the
// default shape.
func FuzzMergeMarshaled(f *testing.F) {
	shapes := []Params{CompactParams(64), {}}
	for i, p := range shapes {
		e := New(p, 5)
		for x := uint64(0); x < 100; x++ {
			e.Add(x, Side(1+x%2))
		}
		f.Add(uint8(i), e.Marshal())
		f.Add(uint8(i), New(shapes[1-i], 5).Marshal())
	}
	f.Fuzz(func(t *testing.T, shape uint8, buf []byte) {
		_ = mergeChecked(t, receiver(shapes[int(shape)%len(shapes)]), buf)
	})
}

func TestUnmarshalCorruptionNeverPanics(t *testing.T) {
	src := prng.New(1)
	e := New(Params{Levels: 10}, 5)
	for i := uint64(0); i < 100; i++ {
		e.Add(i, SideA)
	}
	buf := e.Marshal()
	into := receiver(Params{Levels: 10})
	for trial := 0; trial < 300; trial++ {
		corrupt := append([]byte(nil), buf...)
		for f := 0; f <= src.Intn(6); f++ {
			corrupt[src.Intn(len(corrupt))] ^= byte(1 + src.Intn(255))
		}
		if mergeChecked(t, into, corrupt) == nil {
			_ = into.Estimate()
		}
	}
}

func TestUnmarshalHostileHeader(t *testing.T) {
	hostile := make([]byte, 64)
	for i := 0; i < 16; i++ {
		hostile[i] = 0x7f // huge Levels/Buckets/Subreplicas/Replicas
	}
	for _, p := range []Params{{}, CompactParams(64)} {
		if err := mergeChecked(t, receiver(p), hostile); err == nil {
			t.Fatal("hostile estimator header accepted")
		}
	}
}

func TestUnmarshalRandomGarbage(t *testing.T) {
	src := prng.New(3)
	into := receiver(CompactParams(64))
	for trial := 0; trial < 300; trial++ {
		n := src.Intn(2 * into.SerializedSize())
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(src.Uint64())
		}
		if mergeChecked(t, into, buf) == nil {
			_ = into.Estimate()
		}
	}
}

// TestCloneIndependence: a CopyFrom copy owns its buckets.
func TestCloneIndependence(t *testing.T) {
	a := New(Params{}, 1)
	a.Add(5, SideA)
	before := slices.Clone(a.words)
	var b Estimator
	b.CopyFrom(a)
	b.Add(6, SideA)
	b.Add(7, SideA)
	if !slices.Equal(a.words, before) {
		t.Fatal("a copy aliases its source's buckets")
	}
	if slices.Equal(a.words, b.words) {
		t.Fatal("adding to the copy changed nothing")
	}
}

// TestCopyFromMatchesCloneWithoutAllocating: the scratch copy used by
// one-against-many merge loops gives the same estimate as one estimator that
// saw both sides, leaves its source untouched, retargets across parameter
// sets, and — once its storage has grown — allocates nothing, Estimate
// included.
func TestCopyFromMatchesCloneWithoutAllocating(t *testing.T) {
	params := CompactParams(64)
	base := New(params, 9)
	for x := uint64(0); x < 40; x++ {
		base.Add(x, SideA)
	}
	others := make([][]byte, 6)
	for i := range others {
		o, want := New(params, 9), New(params, 9)
		for x := uint64(0); x < 40; x++ {
			want.Add(x, SideA)
		}
		for x := uint64(i); x < 40+uint64(3*i); x++ {
			o.Add(x, SideB)
			want.Add(x, SideB)
		}
		others[i] = o.Marshal()
		var scratch Estimator
		scratch.CopyFrom(New(Params{}, 1)) // a larger, unrelated shape first
		scratch.CopyFrom(base)
		if err := scratch.MergeMarshaled(others[i]); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(scratch.words, want.words) {
			t.Fatalf("copy %d merged differs from one estimator of both sides", i)
		}
	}
	before := base.Marshal()
	var scratch Estimator
	scratch.CopyFrom(base)
	if n := testing.AllocsPerRun(50, func() {
		for _, o := range others {
			scratch.CopyFrom(base)
			_ = scratch.MergeMarshaled(o)
			_ = scratch.Estimate()
		}
	}); n != 0 {
		t.Fatalf("copy+merge+estimate allocates %.1f per run", n)
	}
	if string(base.Marshal()) != string(before) {
		t.Fatal("merging into the scratch copy changed its source")
	}
}
