package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact Prometheus text output: HELP/TYPE
// lines, sorted families and series, label escaping, cumulative histogram
// buckets with the implicit +Inf, and integer-vs-float value formatting.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	sessions := r.Counter("test_sessions_total", "Sessions by kind.", "kind", "status")
	sessions.With("sos", "ok").Add(3)
	sessions.With("set", "error").Inc()
	temp := r.Gauge("test_temperature", "A label-free gauge.")
	temp.With().Set(36.5)
	lat := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "stage")
	h := lat.With("hello")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)
	r.GaugeFunc("test_cache_bytes", "Collector-produced gauge.", []string{"shard"},
		func(emit func(v float64, lvs ...string)) {
			emit(4096, "1")
			emit(2048, "0")
		})
	weird := r.Counter("test_weird_labels_total", "Escaping.", "path")
	weird.With("a\\b\"c\nd").Inc()

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP test_cache_bytes Collector-produced gauge.
# TYPE test_cache_bytes gauge
test_cache_bytes{shard="0"} 2048
test_cache_bytes{shard="1"} 4096
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{stage="hello",le="0.01"} 1
test_latency_seconds_bucket{stage="hello",le="0.1"} 3
test_latency_seconds_bucket{stage="hello",le="1"} 3
test_latency_seconds_bucket{stage="hello",le="+Inf"} 4
test_latency_seconds_sum{stage="hello"} 5.105
test_latency_seconds_count{stage="hello"} 4
# HELP test_sessions_total Sessions by kind.
# TYPE test_sessions_total counter
test_sessions_total{kind="set",status="error"} 1
test_sessions_total{kind="sos",status="ok"} 3
# HELP test_temperature A label-free gauge.
# TYPE test_temperature gauge
test_temperature 36.5
# HELP test_weird_labels_total Escaping.
# TYPE test_weird_labels_total counter
test_weird_labels_total{path="a\\b\"c\nd"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// A second scrape of unchanged state must be byte-identical.
	var b2 strings.Builder
	if err := r.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Fatal("exposition is not deterministic across scrapes")
	}
}

// TestIdempotentRegistration re-registers families and checks schema
// mismatches panic rather than silently splitting series.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h", "k")
	b := r.Counter("dup_total", "h", "k")
	a.With("x").Inc()
	b.With("x").Inc()
	if got := a.With("x").Value(); got != 2 {
		t.Fatalf("re-registered family did not share state: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("dup_total", "h", "k")
}

// TestConcurrentUpdates hammers every metric type from many goroutines (run
// under -race in CI) while scraping concurrently, then checks the totals.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "c", "w")
	g := r.Gauge("race_gauge", "g")
	hv := r.Histogram("race_seconds", "h", []float64{0.5}, "w")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%2))
			ctr := c.With(lbl)
			h := hv.With(lbl)
			for i := 0; i < perWorker; i++ {
				ctr.Inc()
				g.With().Add(1)
				h.Observe(float64(i%2) * 0.9)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				var b strings.Builder
				_ = r.WriteProm(&b)
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := c.With("a").Value() + c.With("b").Value(); got != workers*perWorker {
		t.Fatalf("counter total %d, want %d", got, workers*perWorker)
	}
	if got := g.With().Value(); got != workers*perWorker {
		t.Fatalf("gauge total %v, want %d", got, workers*perWorker)
	}
	if got := hv.With("a").Count() + hv.With("b").Count(); got != workers*perWorker {
		t.Fatalf("histogram count %d, want %d", got, workers*perWorker)
	}
}

// TestQuantile checks the bucket-interpolation estimate on a known
// distribution.
func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "q", []float64{1, 2, 4, 8}).With()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 100 observations uniform over (0, 4]: 25 per bucket (0,1], (1,2],
	// and 50 in (2,4].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if got := h.Quantile(0.5); math.Abs(got-2) > 0.1 {
		t.Fatalf("p50 = %v, want ≈2", got)
	}
	if got := h.Quantile(0.25); math.Abs(got-1) > 0.1 {
		t.Fatalf("p25 = %v, want ≈1", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}
	// Observations beyond the last finite bucket clamp to its bound.
	h2 := r.Histogram("q2_seconds", "q", []float64{1}).With()
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want 1", got)
	}
	if h2.Sum() != 100 || h2.Count() != 1 {
		t.Fatalf("sum/count = %v/%d", h2.Sum(), h2.Count())
	}
}

// TestWithExistingSeriesAllocBudget pins the session-path rule: resolving a
// series that already exists — however many labels key it — allocates
// nothing, so per-session counters cost a lookup and an atomic add.
func TestWithExistingSeriesAllocBudget(t *testing.T) {
	r := NewRegistry()
	sessions := r.Counter("sessions_total", "help", "kind", "proto", "status")
	stage := r.Histogram("stage_seconds", "help", nil, "stage")
	kind, proto, status := "sos", "cascade", "ok"
	sessions.With(kind, proto, status).Inc()
	stage.With("hello").Observe(1)
	allocs := testing.AllocsPerRun(1000, func() {
		sessions.With(kind, proto, status).Inc()
		stage.With("hello").Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("With on existing series allocates %.1f/op, want 0", allocs)
	}
}
