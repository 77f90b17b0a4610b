// Package obs is a dependency-free metrics core for the sosr network stack:
// atomic counters, gauges, and fixed-bucket histograms, grouped into labeled
// families in a Registry that exposes the whole set in Prometheus text
// format (see prom.go).
//
// The design mirrors the subset of the Prometheus client library the
// daemon actually needs — no dependency, no global default registry, no
// background goroutines. Hot-path updates (a session recording its bytes)
// are a map lookup plus one or two atomic adds; exposition walks a snapshot
// and never blocks writers for longer than a child-map read.
//
// Families are registered idempotently: asking twice for the same name with
// the same kind and label set returns the same family, so several servers
// (e.g. in-process shard instances) can share one Registry as long as their
// label values keep series distinct.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// metricKind discriminates family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DefTimeBuckets is the default histogram layout for latencies in seconds:
// exponential from 100µs (a cached loopback session) to 30s (a stalled WAN
// session about to hit a deadline).
var DefTimeBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Registry holds metric families and renders them for scraping. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	upper  []float64 // histogram bucket upper bounds (sorted, no +Inf)

	mu       sync.RWMutex
	children map[string]*series
	collect  []CollectFunc
}

// series is one (label values → metric) instance of a family.
type series struct {
	lvs []string
	c   *Counter
	g   *Gauge
	h   *Histogram
}

// CollectFunc emits samples computed at scrape time (cache statistics,
// dataset versions — state that already has an owner and a lock). It is
// called with no registry locks held; emit may be called any number of
// times, once per label-value tuple.
type CollectFunc func(emit func(v float64, labelValues ...string))

// family registers or fetches a family, enforcing schema consistency.
func (r *Registry) family(name, help string, kind metricKind, upper []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: %s re-registered as %s%v (was %s%v)", name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: %s re-registered with labels %v (was %v)", name, labels, f.labels))
			}
		}
		return f
	}
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("obs: %s buckets not strictly increasing: %v", name, upper))
		}
	}
	f := &family{
		name: name, help: help, kind: kind, labels: labels,
		upper:    upper,
		children: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// Histogram registers (or fetches) a histogram family with the given bucket
// upper bounds (nil selects DefTimeBuckets). The +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefTimeBuckets
	}
	return &HistogramVec{r.family(name, help, kindHistogram, buckets, labels)}
}

// CounterFunc registers a counter family whose samples are produced by
// collect at scrape time. The emitted values must be monotonically
// non-decreasing across scrapes (they are rendered as a counter).
func (r *Registry) CounterFunc(name, help string, labels []string, collect CollectFunc) {
	f := r.family(name, help, kindCounter, nil, labels)
	f.mu.Lock()
	f.collect = append(f.collect, collect)
	f.mu.Unlock()
}

// GaugeFunc registers a gauge family whose samples are produced by collect
// at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels []string, collect CollectFunc) {
	f := r.family(name, help, kindGauge, nil, labels)
	f.mu.Lock()
	f.collect = append(f.collect, collect)
	f.mu.Unlock()
}

// GetHistogram returns the histogram for the exact label values, or nil if
// the family or series does not exist (nothing is created). Useful for
// reading quantiles out of an instrumented component after a run.
func (r *Registry) GetHistogram(name string, labelValues ...string) *Histogram {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok || f.kind != kindHistogram {
		return nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.children[seriesKey(labelValues)]
	if !ok {
		return nil
	}
	return s.h
}

// seriesKey joins label values with an unprintable separator.
func seriesKey(lvs []string) string { return string(appendSeriesKey(nil, lvs)) }

func appendSeriesKey(b []byte, lvs []string) []byte {
	for i, v := range lvs {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return b
}

// child returns (creating if needed) the series for the given label values.
// Finding an existing series allocates nothing — the key is assembled on the
// stack and the map is probed with it in place — so With on a session path
// costs a read lock and a lookup; only a series' first use builds its key.
func (f *family) child(lvs []string) *series {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", f.name, len(f.labels), len(lvs)))
	}
	var buf [128]byte
	probe := appendSeriesKey(buf[:0], lvs)
	f.mu.RLock()
	s, ok := f.children[string(probe)]
	f.mu.RUnlock()
	if ok {
		return s
	}
	key := string(probe)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.children[key]; ok {
		return s
	}
	s = &series{lvs: append([]string(nil), lvs...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.upper)
	}
	f.children[key] = s
	return s
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on first
// use. The returned pointer is stable; hot paths should keep it.
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.child(labelValues).c }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge { return v.f.child(labelValues).g }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.child(labelValues).h }

// Counter is a monotonically increasing integer, safe for concurrent use.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets, safe for concurrent
// use. Buckets are cumulative only at exposition; internally each count is
// per-bucket so Observe is one atomic add.
type Histogram struct {
	upper  []float64       // shared with the family; sorted ascending
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with v <= upper bound
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket holding the target rank — the same estimate a
// Prometheus histogram_quantile() would compute from the exported buckets.
// Observations beyond the last finite bucket clamp to its upper bound; an
// empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(total)
	cum, lower := 0.0, 0.0
	for i, ub := range h.upper {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			return lower + (ub-lower)*(rank-cum)/c
		}
		cum += c
		lower = ub
	}
	return lower
}
