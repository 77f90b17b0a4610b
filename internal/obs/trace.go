package obs

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// trace.go is the tracing half of the obs package: dependency-free
// distributed traces with typed span attributes and a bounded in-memory
// store of recent and flagged (slow or errored) traces.
//
// The design is built around nil receivers: a disabled tracer (nil, or
// sample rate 0) hands out nil *Spans, and every Span method is safe and
// free on nil — the instrumented hot paths pay no allocations and no
// branches beyond a nil check when tracing is off. That contract is
// enforced by an alloc-budget test (see trace_test.go).
//
// Trace and span IDs are 64-bit and travel across processes in the sosrnet
// hello, so one trace can cover a sharded fan-out: client, coordinator and
// every per-shard server session (including abandoned failover and hedge
// attempts) share the trace ID, and each process's Tracer retains the
// spans it saw. Spans are published to their trace's entry when they
// finish, so a server span that outlives the client's root still lands in
// the server's ring.

// TraceID identifies one distributed trace.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as fixed-width hex, the form used in logs and in
// /debug/traces URLs.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the span ID as fixed-width hex.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q", s)
	}
	return TraceID(v), nil
}

type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// attr is one typed key/value pair on a span. Numbers are stored in a
// uint64 payload so the struct stays flat (no interface boxing per attr).
type attr struct {
	key  string
	kind attrKind
	str  string
	num  uint64
}

func (a attr) value() any {
	switch a.kind {
	case attrInt:
		return int64(a.num)
	case attrFloat:
		return math.Float64frombits(a.num)
	case attrBool:
		return a.num != 0
	default:
		return a.str
	}
}

// Span is one timed operation within a trace. The zero of the API is a nil
// *Span: all methods are no-ops on nil, so call sites never need to guard.
// A span is owned by the goroutine running the operation; Finish publishes
// it to the Tracer, after which it is immutable.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	root   bool
	name   string
	start  time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []attr
	errMsg   string
	finished bool
}

// TraceID returns the span's trace ID, 0 on a nil span.
func (sp *Span) TraceID() TraceID {
	if sp == nil {
		return 0
	}
	return sp.trace
}

// ID returns the span's ID, 0 on a nil span.
func (sp *Span) ID() SpanID {
	if sp == nil {
		return 0
	}
	return sp.id
}

// Child starts a sub-span beginning now.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.child(name, time.Now())
}

// ChildAt starts a sub-span at start — for stages whose beginning predates
// the decision to trace (e.g. the hello handshake, timed from connection
// accept), or whose clock reading also feeds a histogram.
func (sp *Span) ChildAt(name string, start time.Time) *Span {
	if sp == nil {
		return nil
	}
	return sp.child(name, start)
}

func (sp *Span) child(name string, start time.Time) *Span {
	return &Span{
		tracer: sp.tracer,
		trace:  sp.trace,
		id:     SpanID(sp.tracer.nextID()),
		parent: sp.id,
		name:   name,
		start:  start,
	}
}

// SetStr attaches a string attribute.
func (sp *Span) SetStr(key, v string) {
	if sp == nil {
		return
	}
	sp.set(attr{key: key, kind: attrStr, str: v})
}

// SetInt attaches an integer attribute.
func (sp *Span) SetInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.set(attr{key: key, kind: attrInt, num: uint64(v)})
}

// SetFloat attaches a float attribute.
func (sp *Span) SetFloat(key string, v float64) {
	if sp == nil {
		return
	}
	sp.set(attr{key: key, kind: attrFloat, num: math.Float64bits(v)})
}

// SetBool attaches a boolean attribute.
func (sp *Span) SetBool(key string, v bool) {
	if sp == nil {
		return
	}
	var n uint64
	if v {
		n = 1
	}
	sp.set(attr{key: key, kind: attrBool, num: n})
}

func (sp *Span) set(a attr) {
	sp.mu.Lock()
	for i := range sp.attrs {
		if sp.attrs[i].key == a.key {
			sp.attrs[i] = a
			sp.mu.Unlock()
			return
		}
	}
	sp.attrs = append(sp.attrs, a)
	sp.mu.Unlock()
}

// Fail records err on the span; a nil error is a no-op, so unconditional
// `sp.Fail(err)` before Finish is the idiom.
func (sp *Span) Fail(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.mu.Lock()
	sp.errMsg = err.Error()
	sp.mu.Unlock()
}

// Finish ends the span now and publishes it to the tracer's trace store.
// Finishing twice is a no-op.
func (sp *Span) Finish() { sp.FinishAt(time.Now()) }

// FinishAt ends the span at end — for a caller that read the clock once
// and also records that reading elsewhere (a latency histogram), so the two
// agree.
func (sp *Span) FinishAt(end time.Time) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.finished {
		sp.mu.Unlock()
		return
	}
	sp.finished = true
	sp.end = end
	sp.mu.Unlock()
	sp.tracer.finishSpan(sp)
}

// Tracer samples, stores, and serves traces. The zero value with a
// positive SampleRate is usable as-is; a nil *Tracer is valid and fully
// disabled. Configure fields before the first span is started.
type Tracer struct {
	// SampleRate is the fraction of StartRoot calls that begin a recorded
	// trace (0 = never, 1 = always). Join ignores it: a remote caller that
	// sampled its session always gets its server-side spans recorded.
	SampleRate float64
	// SlowThreshold flags any trace containing a span at least this slow
	// into the retained ring (0 disables slow capture).
	SlowThreshold time.Duration
	// MaxTraces bounds each of the two rings (recent, flagged);
	// default 256.
	MaxTraces int

	seed atomic.Uint64

	mu      sync.Mutex
	traces  map[TraceID]*traceEntry
	recent  []TraceID // FIFO of unflagged traces, oldest first
	flagged []TraceID // FIFO of slow/errored traces, oldest first
}

// traceEntry accumulates the finished spans of one trace. An entry lives
// in exactly one ring: recent until flagged, then flagged.
type traceEntry struct {
	id      TraceID
	spans   []*Span
	dropped int
	slow    bool
	failed  bool
}

func (e *traceEntry) flaggedNow() bool { return e.slow || e.failed }

const goldenGamma = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer: a full-avalanche bijection over the
// additive stream below, giving well-distributed IDs without math/rand.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (t *Tracer) rand() uint64 {
	s := t.seed.Load()
	for s == 0 {
		t.seed.CompareAndSwap(0, uint64(time.Now().UnixNano())|1)
		s = t.seed.Load()
	}
	return mix64(t.seed.Add(goldenGamma))
}

func (t *Tracer) nextID() uint64 {
	for {
		if v := t.rand(); v != 0 {
			return v
		}
	}
}

func (t *Tracer) maxTraces() int {
	if t.MaxTraces > 0 {
		return t.MaxTraces
	}
	return 256
}

// maxSpans bounds the spans retained per trace; the rest are counted as
// dropped.
const maxSpans = 512

// StartRoot begins a new trace if the sampling decision passes, returning
// nil (and allocating nothing) otherwise.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	r := t.SampleRate
	if r <= 0 {
		return nil
	}
	if r < 1 && float64(t.rand()>>11)/(1<<53) >= r {
		return nil
	}
	return &Span{
		tracer: t,
		trace:  TraceID(t.nextID()),
		id:     SpanID(t.nextID()),
		root:   true,
		name:   name,
		start:  time.Now(),
	}
}

// Join starts a span inside a trace begun elsewhere (the caller's hello
// carried the IDs). The sample decision was the remote root's to make, so
// Join records unconditionally; it returns nil only on a nil tracer or a
// zero trace ID.
func (t *Tracer) Join(trace TraceID, parent SpanID, name string) *Span {
	if t == nil || trace == 0 {
		return nil
	}
	return &Span{
		tracer: t,
		trace:  trace,
		id:     SpanID(t.nextID()),
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
}

func (t *Tracer) finishSpan(sp *Span) {
	slow := t.SlowThreshold > 0 && sp.end.Sub(sp.start) >= t.SlowThreshold
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.traces[sp.trace]
	if e == nil {
		e = &traceEntry{id: sp.trace}
		if t.traces == nil {
			t.traces = make(map[TraceID]*traceEntry)
		}
		t.traces[sp.trace] = e
		t.recent = append(t.recent, sp.trace)
		for len(t.recent) > t.maxTraces() {
			delete(t.traces, t.recent[0])
			t.recent = t.recent[1:]
		}
	}
	if len(e.spans) >= maxSpans {
		e.dropped++
	} else {
		e.spans = append(e.spans, sp)
	}
	wasFlagged := e.flaggedNow()
	e.slow = e.slow || slow
	e.failed = e.failed || sp.errMsg != ""
	if e.flaggedNow() && !wasFlagged {
		for i, id := range t.recent {
			if id == sp.trace {
				t.recent = append(t.recent[:i], t.recent[i+1:]...)
				break
			}
		}
		t.flagged = append(t.flagged, sp.trace)
		for len(t.flagged) > t.maxTraces() {
			delete(t.traces, t.flagged[0])
			t.flagged = t.flagged[1:]
		}
	}
}

// SpanDump is the JSON view of one span in a trace tree.
type SpanDump struct {
	Span     string         `json:"span"`
	Parent   string         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Ms       float64        `json:"duration_ms"`
	Err      string         `json:"error,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanDump    `json:"children,omitempty"`
}

// TraceDump is the JSON view of one trace: its spans as a tree. Spans
// whose parent was not seen by this process (e.g. a server's ring holding
// only its side of a distributed trace) surface as roots, so partial
// views still render.
type TraceDump struct {
	Trace   string      `json:"trace"`
	Spans   int         `json:"spans"`
	Dropped int         `json:"dropped,omitempty"`
	Slow    bool        `json:"slow,omitempty"`
	Failed  bool        `json:"failed,omitempty"`
	Ms      float64     `json:"duration_ms"`
	Roots   []*SpanDump `json:"roots"`
}

// Get returns the span tree for one trace, or nil if the trace is not in
// either ring.
func (t *Tracer) Get(id TraceID) *TraceDump {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	e := t.traces[id]
	var spans []*Span
	var dropped int
	var slow, failed bool
	if e != nil {
		spans = append(spans, e.spans...)
		dropped, slow, failed = e.dropped, e.slow, e.failed
	}
	t.mu.Unlock()
	if e == nil {
		return nil
	}
	d := &TraceDump{
		Trace:   id.String(),
		Spans:   len(spans),
		Dropped: dropped,
		Slow:    slow,
		Failed:  failed,
	}
	byID := make(map[SpanID]*SpanDump, len(spans))
	dumps := make([]*SpanDump, 0, len(spans))
	var first, last time.Time
	for _, sp := range spans {
		sp.mu.Lock()
		sd := &SpanDump{
			Span:  sp.id.String(),
			Name:  sp.name,
			Start: sp.start,
			Ms:    float64(sp.end.Sub(sp.start)) / float64(time.Millisecond),
			Err:   sp.errMsg,
		}
		if sp.parent != 0 {
			sd.Parent = sp.parent.String()
		}
		if len(sp.attrs) > 0 {
			sd.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				sd.Attrs[a.key] = a.value()
			}
		}
		end := sp.end
		sp.mu.Unlock()
		byID[sp.id] = sd
		dumps = append(dumps, sd)
		if first.IsZero() || sp.start.Before(first) {
			first = sp.start
		}
		if end.After(last) {
			last = end
		}
	}
	for i, sd := range dumps {
		parent := spans[i].parent
		if p, ok := byID[parent]; ok && parent != 0 {
			p.Children = append(p.Children, sd)
		} else {
			d.Roots = append(d.Roots, sd)
		}
	}
	for _, sd := range dumps {
		sort.Slice(sd.Children, func(i, j int) bool { return sd.Children[i].Start.Before(sd.Children[j].Start) })
	}
	sort.Slice(d.Roots, func(i, j int) bool { return d.Roots[i].Start.Before(d.Roots[j].Start) })
	if !first.IsZero() {
		d.Ms = float64(last.Sub(first)) / float64(time.Millisecond)
	}
	return d
}

// TraceSummary is one row of the recent/flagged listings.
type TraceSummary struct {
	Trace  string    `json:"trace"`
	Root   string    `json:"root"`
	Start  time.Time `json:"start"`
	Ms     float64   `json:"duration_ms"`
	Spans  int       `json:"spans"`
	Slow   bool      `json:"slow,omitempty"`
	Failed bool      `json:"failed,omitempty"`
}

// Recent lists the unflagged ring, newest first.
func (t *Tracer) Recent() []TraceSummary { return t.summaries(false) }

// Flagged lists the retained slow/errored ring, newest first.
func (t *Tracer) Flagged() []TraceSummary { return t.summaries(true) }

func (t *Tracer) summaries(flagged bool) []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.recent
	if flagged {
		ids = t.flagged
	}
	out := make([]TraceSummary, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		e := t.traces[ids[i]]
		if e == nil {
			continue
		}
		out = append(out, e.summaryLocked())
	}
	return out
}

func (e *traceEntry) summaryLocked() TraceSummary {
	s := TraceSummary{
		Trace:  e.id.String(),
		Spans:  len(e.spans) + e.dropped,
		Slow:   e.slow,
		Failed: e.failed,
	}
	var first, last time.Time
	var rootName string
	for _, sp := range e.spans {
		if first.IsZero() || sp.start.Before(first) {
			first = sp.start
			if rootName == "" {
				rootName = sp.name
			}
		}
		if sp.root {
			rootName = sp.name
		}
		sp.mu.Lock()
		end := sp.end
		sp.mu.Unlock()
		if end.After(last) {
			last = end
		}
	}
	s.Root = rootName
	s.Start = first
	if !first.IsZero() {
		s.Ms = float64(last.Sub(first)) / float64(time.Millisecond)
	}
	return s
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp; a nil span returns ctx
// unchanged (no allocation), so propagation composes with disabled
// tracing for free.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
