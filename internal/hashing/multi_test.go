package hashing

import (
	"fmt"
	"testing"

	"sosr/internal/prng"
)

// The one-pass multi-seed hashes must return, for every seed, exactly the
// word HashBytes returns: cell indexes and checksums on the wire come from
// them. Every length through 4 096 covers every tail length and the widest
// child encodings in use; one to seven seeds covers hash counts 1…6 plus the
// checksum.
func TestMultiSeedHashMatchesHashBytes(t *testing.T) {
	src := prng.New(0x6d756c7469)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(src.Uint64())
	}
	seeds := make([]uint64, 7)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	out := make([]uint64, len(seeds))
	for n := 0; n <= len(data); n++ {
		key := data[:n]
		for k := 1; k <= len(seeds); k++ {
			HashBytesMulti(seeds[:k], out, key)
			for i := 0; i < k; i++ {
				if want := HashBytes(seeds[i], key); out[i] != want {
					t.Fatalf("HashBytesMulti len=%d seeds=%d: out[%d]=%#x, HashBytes=%#x", n, k, i, out[i], want)
				}
			}
		}
		h := [5]uint64{}
		h[0], h[1], h[2], h[3], h[4] = HashBytes5(seeds[0], seeds[1], seeds[2], seeds[3], seeds[4], key)
		for i, got := range h {
			if want := HashBytes(seeds[i], key); got != want {
				t.Fatalf("HashBytes5 len=%d: h%d=%#x, HashBytes=%#x", n, i, got, want)
			}
		}
	}
}

func FuzzMultiSeedHash(f *testing.F) {
	f.Add(uint64(1), uint64(2), []byte("seed"))
	f.Add(uint64(0), ^uint64(0), []byte{})
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(7), make([]byte, 51))
	f.Fuzz(func(t *testing.T, a, b uint64, data []byte) {
		seeds := []uint64{a, b, a ^ b, a + b, a * 31, b >> 3, ^a}
		out := make([]uint64, len(seeds))
		HashBytesMulti(seeds, out, data)
		h0, h1, h2, h3, h4 := HashBytes5(seeds[0], seeds[1], seeds[2], seeds[3], seeds[4], data)
		for i, five := range []uint64{h0, h1, h2, h3, h4} {
			if five != out[i] {
				t.Fatalf("HashBytes5 and HashBytesMulti disagree on seed %d", i)
			}
		}
		for i, s := range seeds {
			if want := HashBytes(s, data); out[i] != want {
				t.Fatalf("seed %d: multi %#x, HashBytes %#x", i, out[i], want)
			}
		}
	})
}

func BenchmarkWideKeyHashes(b *testing.B) {
	seeds := []uint64{1, 2, 3, 4, 5}
	out := make([]uint64, 5)
	for _, n := range []int{51, 272, 4352} {
		key := make([]byte, n)
		b.Run(fmt.Sprintf("separate/%dB", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, s := range seeds {
					out[j] = HashBytes(s, key)
				}
			}
		})
		b.Run(fmt.Sprintf("onepass5/%dB", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out[0], out[1], out[2], out[3], out[4] = HashBytes5(1, 2, 3, 4, 5, key)
			}
		})
		b.Run(fmt.Sprintf("onepassN/%dB", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				HashBytesMulti(seeds, out, key)
			}
		})
	}
}
