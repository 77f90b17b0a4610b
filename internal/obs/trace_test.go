package obs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := TraceID(0xdeadbeef01020304)
	got, err := ParseTraceID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Fatalf("round trip %v != %v", got, id)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("parsed garbage")
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := &Tracer{SampleRate: 1}
	root := tr.StartRoot("session")
	if root == nil {
		t.Fatal("sampled root is nil")
	}
	root.SetStr("kind", "sos")
	root.SetInt("d", 40)
	root.SetFloat("ratio", 1.5)
	root.SetBool("hit", true)
	root.SetInt("d", 41) // same key overwrites

	enc := root.Child("encode")
	enc.Finish()
	xfer := root.Child("transfer")
	sub := xfer.Child("frame")
	sub.Fail(errors.New("boom"))
	sub.Finish()
	xfer.Finish()
	root.Finish()

	d := tr.Get(root.TraceID())
	if d == nil {
		t.Fatal("trace not retained")
	}
	if d.Spans != 4 {
		t.Fatalf("spans = %d, want 4", d.Spans)
	}
	if !d.Failed {
		t.Fatal("errored child did not flag the trace")
	}
	if len(d.Roots) != 1 || d.Roots[0].Name != "session" {
		t.Fatalf("roots = %+v", d.Roots)
	}
	rd := d.Roots[0]
	if rd.Attrs["kind"] != "sos" || rd.Attrs["d"] != int64(41) ||
		rd.Attrs["ratio"] != 1.5 || rd.Attrs["hit"] != true {
		t.Fatalf("attrs = %+v", rd.Attrs)
	}
	if len(rd.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(rd.Children))
	}
	var frame *SpanDump
	for _, c := range rd.Children {
		if c.Name == "transfer" && len(c.Children) == 1 {
			frame = c.Children[0]
		}
	}
	if frame == nil || frame.Err != "boom" {
		t.Fatalf("nested errored span missing: %+v", rd.Children)
	}

	// Errored traces land in the flagged ring, not recent.
	if len(tr.Recent()) != 0 {
		t.Fatalf("recent = %+v", tr.Recent())
	}
	fl := tr.Flagged()
	if len(fl) != 1 || !fl[0].Failed || fl[0].Root != "session" || fl[0].Spans != 4 {
		t.Fatalf("flagged = %+v", fl)
	}
}

func TestJoinRecordsRegardlessOfSampleRate(t *testing.T) {
	tr := &Tracer{SampleRate: 0}
	if sp := tr.StartRoot("x"); sp != nil {
		t.Fatal("rate-0 tracer sampled a root")
	}
	sp := tr.Join(TraceID(7), SpanID(9), "server")
	if sp == nil {
		t.Fatal("join refused")
	}
	if sp.TraceID() != 7 {
		t.Fatalf("trace id %v", sp.TraceID())
	}
	sp.Finish()
	d := tr.Get(TraceID(7))
	if d == nil || d.Spans != 1 {
		t.Fatalf("joined span not retained: %+v", d)
	}
	// The parent span lives in another process: its child renders as a root.
	if len(d.Roots) != 1 || d.Roots[0].Parent == "" {
		t.Fatalf("orphan rendering: %+v", d.Roots)
	}
	if tr.Join(0, 0, "x") != nil {
		t.Fatal("join with zero trace id")
	}
}

func TestRingEviction(t *testing.T) {
	tr := &Tracer{SampleRate: 1, MaxTraces: 4}
	var ids []TraceID
	for i := 0; i < 10; i++ {
		sp := tr.StartRoot("s")
		ids = append(ids, sp.TraceID())
		sp.Finish()
	}
	if got := len(tr.Recent()); got != 4 {
		t.Fatalf("recent size %d, want 4", got)
	}
	for _, id := range ids[:6] {
		if tr.Get(id) != nil {
			t.Fatalf("evicted trace %v still retrievable", id)
		}
	}
	for _, id := range ids[6:] {
		if tr.Get(id) == nil {
			t.Fatalf("fresh trace %v evicted", id)
		}
	}
	// Newest first.
	if tr.Recent()[0].Trace != ids[9].String() {
		t.Fatalf("ordering: %+v", tr.Recent())
	}
}

func TestSlowCapture(t *testing.T) {
	tr := &Tracer{SampleRate: 1, SlowThreshold: time.Nanosecond}
	sp := tr.StartRoot("slow-session")
	time.Sleep(time.Millisecond)
	sp.Finish()
	fl := tr.Flagged()
	if len(fl) != 1 || !fl[0].Slow {
		t.Fatalf("slow trace not captured: %+v", fl)
	}
	d := tr.Get(sp.TraceID())
	if d == nil || !d.Slow {
		t.Fatalf("slow flag lost on dump: %+v", d)
	}
}

func TestMaxSpansDropCount(t *testing.T) {
	tr := &Tracer{SampleRate: 1}
	root := tr.StartRoot("s")
	for i := 0; i < maxSpans+3; i++ {
		root.Child("c").Finish()
	}
	root.Finish()
	d := tr.Get(root.TraceID())
	if d.Spans != maxSpans || d.Dropped != 4 {
		t.Fatalf("spans=%d dropped=%d, want %d/4", d.Spans, d.Dropped, maxSpans)
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty ctx returned a span")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("nil span changed the ctx")
	}
	tr := &Tracer{SampleRate: 1}
	sp := tr.StartRoot("s")
	got := SpanFromContext(ContextWithSpan(ctx, sp))
	if got != sp {
		t.Fatal("span did not round-trip through ctx")
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	tr := &Tracer{SampleRate: 1, MaxTraces: 8}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.StartRoot("s")
				c := root.Child("c")
				c.SetInt("i", int64(i))
				c.Finish()
				root.Finish()
				tr.Get(root.TraceID())
				tr.Recent()
			}
		}()
	}
	wg.Wait()
}

// TestDisabledTracingAllocBudget enforces the PR 10 acceptance criterion:
// with tracing disabled (nil tracer / sample rate 0 / no ctx span), the
// exact call sequence the session hot paths make must allocate nothing.
func TestDisabledTracingAllocBudget(t *testing.T) {
	ctx := context.Background()
	var disabled *Tracer
	zero := &Tracer{SampleRate: 0}
	err := errors.New("x")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFromContext(ctx)
		sp = sp.Child("session")
		if sp == nil {
			sp = disabled.StartRoot("session")
		}
		if sp == nil {
			sp = zero.StartRoot("session")
		}
		sp = zero.Join(sp.TraceID(), sp.ID(), "join")
		child := sp.ChildAt("hello", time.Time{})
		child.SetStr("kind", "sos")
		child.SetInt("d", 40)
		child.SetFloat("ratio", 1.0)
		child.SetBool("hit", true)
		child.Fail(err)
		child.Finish()
		sp.Fail(nil)
		sp.Finish()
		_ = ContextWithSpan(ctx, sp)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkDisabledSpanPath(b *testing.B) {
	ctx := context.Background()
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := SpanFromContext(ctx)
		if sp == nil {
			sp = tr.StartRoot("session")
		}
		c := sp.Child("encode")
		c.SetInt("d", 40)
		c.Finish()
		sp.Finish()
	}
}
