// Package worktest holds what the tests of several packages share.
//
//   - The pinning check every pooled workspace's tests run: a released
//     workspace must not point into the memory of the call it served, or the
//     pool would keep a caller's message or data set alive — and hand a later
//     caller a window into it (PinsNothing).
//   - The model driver's op stream (Stream): one seed gives a deterministic
//     list of host, update, refused-update, reconcile, idle, snapshot, crash,
//     kill-replica and epoch-bump steps over the flow table (Rows), ending in
//     a follow run that meets each update with the session it invalidates,
//     and a Model of what the hosted data must then be. Every deployment
//     shape — sosrnet over net.Pipe, over TCP and on a crashed and recovered
//     store, sosrshard's replicated grid — runs a stream and holds each step
//     to the in-process library.
//   - One counting, fault-injecting net.Conn and Listener (Conn, Faults), and
//     one counter of the server's "session finished" records (Sessions).
//   - The Meter the deployments' BenchmarkModel legs report through: per kind
//     of op, its time, the bytes the leg moved, the process's allocations and
//     the servers' stage times.
//
// It imports none of the algorithm packages (sosr, core, forest, graphrecon,
// setrecon), whose own tests import it: graph and forest steps carry a seed,
// and the deployment under test builds the data from it.
package worktest

import (
	"reflect"
	"testing"
	"unsafe"
)

// Span is one range of caller memory: the backing array of a slice.
type Span struct{ lo, hi uintptr }

// SpanOf returns the span of s's backing array up to its capacity; the empty
// span for a slice without one.
func SpanOf[T any](s []T) Span {
	if cap(s) == 0 {
		return Span{}
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return Span{lo, lo + uintptr(cap(s))*unsafe.Sizeof(s[0])}
}

// SpansOf returns one span per inner slice.
func SpansOf[T any](ss [][]T) []Span {
	out := make([]Span, 0, len(ss)+1)
	for _, s := range ss {
		out = append(out, SpanOf(s))
	}
	return append(out, SpanOf(ss))
}

// PinsNothing walks w — every field, every slice over its full capacity
// (stale entries past the length pin memory too), every pointer — and fails
// the test for each slice that points into one of the caller's spans and for
// each map that still holds entries.
func PinsNothing(t testing.TB, name string, w any, caller ...Span) {
	t.Helper()
	inCaller := func(p uintptr) bool {
		for _, s := range caller {
			if p >= s.lo && p < s.hi {
				return true
			}
		}
		return false
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		t.Helper()
		switch v.Kind() {
		case reflect.Slice:
			if v.Cap() > 0 && inCaller(v.Pointer()) {
				t.Errorf("%s still points into caller data", path)
			}
			full := v.Slice3(0, v.Cap(), v.Cap())
			if k := full.Type().Elem().Kind(); k == reflect.Slice || k == reflect.Struct || k == reflect.Pointer {
				for i := 0; i < full.Len(); i++ {
					walk(path+"[]", full.Index(i))
				}
			}
		case reflect.Map:
			if v.Len() != 0 {
				t.Errorf("%s holds %d entries after release", path, v.Len())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Pointer:
			if !v.IsNil() {
				walk(path, v.Elem())
			}
		}
	}
	walk(name, reflect.ValueOf(w))
}
