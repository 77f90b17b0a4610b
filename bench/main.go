// Command bench is the repository's one-command benchmark: four workloads
// over loopback TCP, end-to-end and per-layer metrics, a separate traced
// round, and a -compare mode that applies the regression bounds. See
// README.md in this directory.
//
//	go run -C bench sosr/bench -seed 1                          # everything, ~3 min
//	go run -C bench sosr/bench -workload hot_sos_tcp -seconds 20 -trace 0
//	go run -C bench sosr/bench -compare out/a.json out/b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and end with the driver's one-line JSON result (default: all four, interleaved)")
	seed := fs.Uint64("seed", 1, "seed every input and every per-op coin derives from")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload, split evenly over its rounds")
	trace := fs.Int("trace", 1, "1: also run the traced round and the layer probes and report per-layer metrics; 0: end-to-end only")
	out := fs.String("out", "out", "directory for result.json, trace files and scratch stores")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *out, log: stderr}
	if *workload != "" {
		cfg.workloads = []string{*workload}
	} else {
		for _, d := range workloadDefs {
			cfg.workloads = append(cfg.workloads, d.Name)
		}
	}
	res, err := execute(context.Background(), cfg)
	if res != nil {
		printResult(stdout, cfg, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *workload != "" {
		if err := printDriverLine(stdout, cfg, res.Workloads[*workload]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// printDriverLine ends the output with the one JSON object the builder's
// driver reads: the gated end-to-end metrics of an untraced run, every other
// metric of a traced one.
func printDriverLine(w io.Writer, cfg *config, wr *workloadResult) error {
	gated, reported := driverMetrics()
	if cfg.trace {
		gated = reported
	}
	metrics := map[string]value{}
	for _, d := range gated {
		v, ok := wr.EndToEnd[d.Name]
		if !ok {
			v = wr.PerLayer[d.Name]
		}
		metrics[d.Name] = value{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// spread is the distance between the first and third quartile of xs as a
// share of their median — the same quantity the builder's driver computes
// across runs, here across rounds.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

func printResult(w io.Writer, cfg *config, res *result) {
	fmt.Fprintf(w, "sosr bench: seed=%d %s nproc=%d GOMAXPROCS=%d (default, recorded)\n", res.Seed, res.Go, res.NProc, res.GOMAXPROCS)
	fmt.Fprintf(w, "load: %s, %d client goroutines, at most 2 connections in flight; fsync %s\n", res.Transport, res.Clients, res.Fsync)
	fmt.Fprintf(w, "rounds: %d x %.2fs per workload, interleaved round-robin; timing metrics are medians over rounds\n", res.Rounds, res.RoundSec)
	for _, name := range cfg.workloads {
		wr := res.Workloads[name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s: attempted=%d failed=%d wrong=%d\n", name, wr.Attempted, wr.Failed, wr.Wrong)
		fmt.Fprintf(w, "  end-to-end%42s\n", "spread over rounds")
		for _, d := range endToEnd {
			v := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "    %-34s %14.4f %-6s", d.Name, v.Value, v.Unit)
			if len(v.Rounds) > 1 {
				fmt.Fprintf(w, " %5.1f%%", 100*spread(v.Rounds))
			}
			fmt.Fprintln(w)
		}
		if !cfg.trace {
			continue
		}
		fmt.Fprintln(w, "  per-layer")
		for _, d := range perLayer {
			v := wr.PerLayer[d.Name]
			fmt.Fprintf(w, "    %-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
		fmt.Fprintln(w, "  self time by span, traced round and decomposed op (span minus children)")
		fmt.Fprintf(w, "    %-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, st := range wr.SelfTime {
			fmt.Fprintf(w, "    %-34s %8d %12.3f %12.3f\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
		}
	}
	fmt.Fprintf(w, "\nwrote %s", filepath.Join(cfg.outDir, "result.json"))
	if cfg.trace {
		fmt.Fprintf(w, " and %s", filepath.Join(cfg.outDir, "trace-<workload>.json"))
	}
	fmt.Fprintln(w)
}
