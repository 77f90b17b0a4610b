package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

// TestEveryExperimentRuns drives the whole list at one trial a row: every
// experiment prints its header, no protocol row counts a wrong result, and an
// unknown experiment is an error. Failures are the protocols' 1/poly and are
// not asserted.
func TestEveryExperimentRuns(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "all", "-trials", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments {
		if !strings.Contains(out.String(), "════ "+e.name+" ════") {
			t.Errorf("experiment %s printed no header", e.name)
		}
	}
	// A protocol row ends "ok/trials wrong".
	rows := regexp.MustCompile(`(?m)^(.*) [01]/1 +(\d+)$`).FindAllStringSubmatch(out.String(), -1)
	if len(rows) < 50 {
		t.Fatalf("%d protocol rows, want every table1, sets, crossover, unknownd, graphs, neighborhood and forest row:\n%s", len(rows), out.String())
	}
	for _, r := range rows {
		if r[2] != "0" {
			t.Errorf("%s: %s wrong results", strings.TrimSpace(r[1]), r[2])
		}
	}
	if err := run([]string{"-experiment", "bogus"}, io.Discard); err == nil {
		t.Error("-experiment bogus ran without an error")
	}
}
