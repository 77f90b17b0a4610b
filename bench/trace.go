package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sosr/internal/obs"
)

// trace.go holds the benchmark's own spans. Two sources feed one flat list:
//
//   - spans the benchmark records itself (src "bench"): one root per op and,
//     in a decomposed op or a probe, one child per call into a layer;
//   - spans the program's tracer recorded for a traced op (src "program"),
//     imported from obs.Tracer dumps after the round.
//
// Everything stays in memory until the run ends.

type span struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNs and EndNs count from the recorder's epoch.
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Src     string `json:"src"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
	next  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a bench span. parent nil starts a new trace.
func (r *recorder) begin(parent *span, name string) *span {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.next++
	s := &span{ID: fmt.Sprintf("b%d", r.next), Name: name, StartNs: now, Src: "bench"}
	if parent != nil {
		s.Trace, s.Parent = parent.Trace, parent.ID
	} else {
		s.Trace = "t" + s.ID
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

func (r *recorder) end(s *span) { s.EndNs = time.Since(r.epoch).Nanoseconds() }

// call records one child span around fn and returns its duration.
func (r *recorder) call(parent *span, name string, fn func()) time.Duration {
	s := r.begin(parent, name)
	fn()
	r.end(s)
	return s.dur()
}

// importTrace flattens one program trace (a traced op: the benchmark's
// "bench/..." spans plus whatever the client, the shard fan-out and the
// server recorded under them) into the list.
func (r *recorder) importTrace(d *obs.TraceDump) {
	if d == nil {
		return
	}
	var walk func(sd *obs.SpanDump)
	r.mu.Lock()
	defer r.mu.Unlock()
	walk = func(sd *obs.SpanDump) {
		start := sd.Start.Sub(r.epoch).Nanoseconds()
		src := "program"
		if len(sd.Name) > 6 && sd.Name[:6] == "bench/" {
			src = "bench"
		}
		r.spans = append(r.spans, &span{
			Trace: d.Trace, ID: sd.Span, Parent: sd.Parent, Name: sd.Name,
			StartNs: start, EndNs: start + int64(sd.Ms*1e6), Src: src,
		})
		for _, c := range sd.Children {
			walk(c)
		}
	}
	for _, root := range d.Roots {
		walk(root)
	}
}

// spanStat aggregates one span name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	durs    []float64
}

// selfTimes computes, per span name, total time and self time: a span's
// duration minus the part of its interval its children cover (overlapping
// children are merged first; a child is clipped to its parent, because the
// program back-dates its hello span and ends a server session after the
// client's).
func selfTimes(spans []*span) map[string]*spanStat {
	children := map[string][]*span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := s.Trace + "/" + s.Parent
			children[k] = append(children[k], s)
		}
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		kids := children[s.Trace+"/"+s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		st.SelfMs += float64(s.EndNs-s.StartNs-covered) / 1e6
		st.durs = append(st.durs, float64(s.EndNs-s.StartNs))
	}
	return out
}

// medianNs is the median duration of the spans named name, 0 if none.
func medianNs(stats map[string]*spanStat, name string) float64 {
	if st := stats[name]; st != nil {
		return median(st.durs)
	}
	return 0
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	// OpsTraced counts the ops of the traced round; the file keeps the spans
	// of the first OpsWritten of them, and every decomposed-op and probe span.
	OpsTraced  int         `json:"ops_traced"`
	OpsWritten int         `json:"ops_written"`
	SelfTime   []*spanStat `json:"self_time"`
	Spans      []*span     `json:"spans"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedStats(stats map[string]*spanStat) []*spanStat {
	out := make([]*spanStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}
