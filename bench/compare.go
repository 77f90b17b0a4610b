package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// compare.go applies the regression bounds to two result files, baseline
// first. A metric whose rounds spread wider than its bound cannot resolve a
// change of that size, and is reported as unresolved rather than unchanged.

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one metric of one workload: a is the baseline, b the change.
func verdict(d metricDef, a, b value) (string, float64) {
	worse := b.Value - a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if d.exact {
		if worse > 0 {
			return "regressed", worse
		}
		return "ok", worse
	}
	if a.Value != 0 {
		worse /= a.Value
	}
	if max(spread(a.Rounds), spread(b.Rounds)) > d.Bound && !allBetter(d, a.Rounds, b.Rounds) {
		return "unresolved", worse
	}
	if worse > d.Bound {
		return "regressed", worse
	}
	return "ok", worse
}

// allBetter reports whether every round of b reads better than every round
// of a: then even a noisy metric has resolved, in b's favour.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadResult(pathA)
	b, errB := loadResult(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench -compare:", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b *result, w io.Writer) int {
	regressed := 0
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "change", "worse", "bound", "verdict")
	for _, def := range workloadDefs {
		wa, wb := a.Workloads[def.Name], b.Workloads[def.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range append(append([]metricDef{}, endToEnd...), gatedLayer...) {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA {
				va, okA = wa.PerLayer[d.Name]
				vb, okB = wb.PerLayer[d.Name]
			}
			if !okA || !okB || (d.Name == "update_p50_ms" && va.Value == 0 && vb.Value == 0) {
				continue
			}
			v, worse := verdict(d, va, vb)
			switch {
			case v == "regressed" && d.noisy:
				v = "worse (ungated)" // see metricDef.noisy: reported, never a verdict on the change
			case v == "regressed":
				regressed++
			}
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			change := fmt.Sprintf("%+.1f%%", 100*worse)
			if d.exact {
				bound, change = "exact", fmt.Sprintf("%+.4g", worse)
			}
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %9s %7s  %s\n", def.Name, d.Name, va.Value, vb.Value, change, bound, v)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
