package iblt

import (
	"testing"

	"sosr/internal/prng"
)

func BenchmarkInsertUint64(b *testing.B) {
	t := NewUint64(1024, 0, 1)
	src := prng.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.InsertUint64(src.Uint64())
	}
}

func BenchmarkDecode256(b *testing.B) {
	src := prng.New(3)
	fails := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := NewUint64(CellsFor(256), 0, src.Uint64())
		for k := 0; k < 256; k++ {
			t.InsertUint64(src.Uint64())
		}
		b.StartTimer()
		if _, _, err := t.Decode(); err != nil {
			fails++ // 1/poly failure probability by design (Thm 2.1)
		}
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failures")
}

func BenchmarkSubtract(b *testing.B) {
	src := prng.New(4)
	x := NewUint64(1024, 0, 5)
	y := NewUint64(1024, 0, 5)
	for i := 0; i < 1000; i++ {
		v := src.Uint64()
		x.InsertUint64(v)
		y.InsertUint64(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Clone().Subtract(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalUnmarshal(b *testing.B) {
	t := NewUint64(512, 0, 7)
	for i := uint64(0); i < 300; i++ {
		t.InsertUint64(i * 31)
	}
	var buf []byte
	var back Table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = t.AppendMarshal(buf[:0])
		if err := back.UnmarshalInto(buf, DefaultHashCount, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVectorKeyInsert(b *testing.B) {
	// 256-byte keys, the size class of child-IBLT encodings.
	t := New(256, 256, 0, 9)
	key := t.FuzzSeededKey(42)
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(key)
	}
}
