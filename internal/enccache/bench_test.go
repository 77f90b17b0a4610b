package enccache

import "testing"

// BenchmarkGetOrComputeHit is the bench probe's enccache.hit_us in package: a
// single-frame lookup of a resident key in a default-sized cache.
func BenchmarkGetOrComputeHit(b *testing.B) {
	c := New(0)
	k := Key{Dataset: "docs", Proto: "cascade", Seed: 1, S: 200, H: 16, D: 32, DHat: 32}
	payload := make([]byte, 4096)
	build := func() ([]byte, error) { return payload, nil }
	if _, err := c.GetOrCompute(k, build); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.GetOrCompute(k, build); err != nil {
			b.Fatal(err)
		}
	}
}
