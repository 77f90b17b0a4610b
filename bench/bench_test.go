package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func allWorkloads() []string {
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.Name)
	}
	return names
}

func smokeRun(t *testing.T, trace bool) (*result, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := &config{seed: 7, workloads: allWorkloads(), seconds: 0.5, trace: trace, outDir: dir, countOps: 2, log: io.Discard}
	res, err := execute(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, dir
}

// TestSmoke runs every workload for a fraction of a second, traced, and
// checks the shape of everything the benchmark writes; a second, untraced
// run with the same seed must reproduce the count metrics exactly.
func TestSmoke(t *testing.T) {
	res, dir := smokeRun(t, true)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, def := range workloadDefs {
		wr := res.Workloads[def.Name]
		if wr == nil {
			t.Fatalf("%s: no result", def.Name)
		}
		if wr.Attempted == 0 || wr.Failed != 0 || !wr.Correct {
			t.Errorf("%s: attempted=%d failed=%d correct=%v", def.Name, wr.Attempted, wr.Failed, wr.Correct)
		}
		check := func(kind string, defs []metricDef, got map[string]value) {
			if len(got) != len(defs) {
				t.Errorf("%s: %d %s metrics reported, %d defined", def.Name, len(got), kind, len(defs))
			}
			for _, d := range defs {
				v, ok := got[d.Name]
				if !ok || v.Unit != d.Unit || d.Unit == "" {
					t.Errorf("%s: %s metric %s missing or without its unit %q: %+v", def.Name, kind, d.Name, d.Unit, v)
				}
				if !name.MatchString(d.Name) {
					t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
				}
			}
		}
		check("end-to-end", endToEnd, wr.EndToEnd)
		check("per-layer", perLayer, wr.PerLayer)
		for _, d := range endToEnd {
			if wr.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", def.Name, d.Name, wr.EndToEnd[d.Name].Value)
			}
		}
		checkTraceFile(t, filepath.Join(dir, "trace-"+def.Name+".json"))
	}
	if hot := res.Workloads["hot_sos_tcp"].PerLayer; hot["enccache.server_hit_ratio"].Value < 0.9 || hot["enccache.client_hit_ratio"].Value < 0.9 {
		t.Errorf("hot_sos_tcp should hit both caches: %+v %+v", hot["enccache.server_hit_ratio"], hot["enccache.client_hit_ratio"])
	}
	if cold := res.Workloads["cold_kinds_tcp"].PerLayer; cold["enccache.server_hit_ratio"].Value > 0.1 || cold["enccache.client_hit_ratio"].Value > 0.1 {
		t.Errorf("cold_kinds_tcp should miss both caches: %+v %+v", cold["enccache.server_hit_ratio"], cold["enccache.client_hit_ratio"])
	}
	if _, err := os.Stat(filepath.Join(dir, "result.json")); err != nil {
		t.Error(err)
	}

	again, _ := smokeRun(t, false)
	for _, def := range workloadDefs {
		a, b := res.Workloads[def.Name], again.Workloads[def.Name]
		for _, pair := range [][2]value{
			{a.EndToEnd["wire_bytes_per_diff"], b.EndToEnd["wire_bytes_per_diff"]},
			{a.PerLayer["fail_ratio"], b.PerLayer["fail_ratio"]},
			{a.PerLayer["sosrnet.rounds_per_op"], b.PerLayer["sosrnet.rounds_per_op"]},
		} {
			if pair[0].Value != pair[1].Value {
				t.Errorf("%s: same seed, different count metric: %v then %v", def.Name, pair[0], pair[1])
			}
		}
	}
}

// checkTraceFile asserts every span has a known parent, and that a span the
// benchmark recorded lies inside the benchmark span that caused it. (The
// program's own spans may poke out of their parents: it back-dates a
// session's hello span to the accept, and a server ends its session span
// after the client's.)
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if tf.OpsTraced == 0 || len(tf.Spans) == 0 || len(tf.SelfTime) == 0 {
		t.Fatalf("%s: empty trace: %d ops, %d spans", path, tf.OpsTraced, len(tf.Spans))
	}
	byID := map[string]*span{}
	for _, s := range tf.Spans {
		byID[s.Trace+"/"+s.ID] = s
	}
	decomposed := false
	for _, s := range tf.Spans {
		decomposed = decomposed || s.Name == "decomposed/"+tf.Workload
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %s ends before it starts", path, s.Name)
		}
		if s.Parent == "" {
			continue
		}
		parent := byID[s.Trace+"/"+s.Parent]
		if parent == nil {
			t.Errorf("%s: span %s (%s) has unknown parent %s", path, s.Name, s.ID, s.Parent)
			continue
		}
		if s.Src == "bench" && parent.Src == "bench" && (s.StartNs < parent.StartNs || s.EndNs > parent.EndNs) {
			t.Errorf("%s: span %s [%d,%d] lies outside its parent %s [%d,%d]", path, s.Name, s.StartNs, s.EndNs, parent.Name, parent.StartNs, parent.EndNs)
		}
	}
	if !decomposed {
		t.Errorf("%s: no decomposed op", path)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to spec.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v differs from spec.go's %+v (or its why is over 200 characters)", i, w, workloadDefs[i])
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i := range want {
			w := metricDef{Name: want[i].Name, Unit: want[i].Unit, Better: want[i].Better}
			if kind == "end_to_end" { // the driver takes no bound for a layer metric
				w.Bound = want[i].Bound
			}
			if got[i] != w {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, got[i], w)
			}
		}
	}
	gated, reported := driverMetrics()
	same("end_to_end", spec.EndToEnd, gated)
	same("per_layer", spec.PerLayer, reported)
	if spec.EndToEnd[0].Name != "setup_s" || spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("contract fields: %+v %d %v", spec.EndToEnd[0], spec.RunSeconds, spec.Paths)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{70, 100, 130, 90, 110}
	timing := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b value
		want string
	}{
		{"within bound", timing, value{Value: 100, Rounds: steady}, value{Value: 105, Rounds: steady}, "ok"},
		{"past bound", timing, value{Value: 100, Rounds: steady}, value{Value: 120, Rounds: steady}, "regressed"},
		{"too noisy to tell", timing, value{Value: 100, Rounds: noisy}, value{Value: 120, Rounds: noisy}, "unresolved"},
		{"noisy but every round better", timing, value{Value: 100, Rounds: noisy}, value{Value: 50, Rounds: []float64{40, 50, 60}}, "ok"},
		{"higher is better", metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}, value{Value: 100, Rounds: steady}, value{Value: 80, Rounds: steady}, "regressed"},
		{"exact count moved", metricDef{Name: "wire_bytes_per_diff", Better: "lower", Bound: 0.05, exact: true}, value{Value: 5157}, value{Value: 5158}, "regressed"},
		{"exact count improved", metricDef{Name: "fail_ratio", Better: "lower", exact: true}, value{Value: 0.01}, value{Value: 0}, "ok"},
	} {
		if got, _ := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	hot := func(p50, allocs float64) *result {
		return &result{Workloads: map[string]*workloadResult{"hot_sos_tcp": {
			EndToEnd: map[string]value{"op_p50_ms": {Value: p50, Rounds: steady}, "allocs_per_op": {Value: allocs, Rounds: steady}},
			PerLayer: map[string]value{"fail_ratio": {Value: 0}},
		}}}
	}
	var out bytes.Buffer
	if code := compareResults(hot(1, 800), hot(1, 800), &out); code != 0 {
		t.Errorf("a result compared with itself exits %d:\n%s", code, out.String())
	}
	if code := compareResults(hot(1, 800), hot(1, 900), &out); code != 1 {
		t.Errorf("allocations up an eighth exits %d, want 1:\n%s", code, out.String())
	}
	// Latency is reported but ungated (metricDef.noisy): it never fails a change.
	if code := compareResults(hot(1, 800), hot(2, 800), &out); code != 0 {
		t.Errorf("a doubled ungated latency exits %d, want 0:\n%s", code, out.String())
	}
}
