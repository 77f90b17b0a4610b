// Command sosbench regenerates the evaluation artifacts of the paper PAPER.md
// names (Table 1, Figure 1, the §5 graph results) and supporting experiments:
//
//	sosbench -experiment table1       # Table 1: the four SSRK protocols, and their failure curve
//	sosbench -experiment figure1      # Figure 1: ambiguous two-way merge
//	sosbench -experiment iblt         # E3: IBLT decode over d × cells per key × k
//	sosbench -experiment sets         # E4, E14: sets, multisets and sets of multisets
//	sosbench -experiment estimator    # E5: Thm 3.1 estimator vs strata [14]
//	sosbench -experiment crossover    # E7: nested vs cascade over d
//	sosbench -experiment unknownd     # E9: unknown-d variants
//	sosbench -experiment graphs       # E10, E11: polynomial, isomorphism and degree-ordering schemes
//	sosbench -experiment separation   # E11b: honest G(n,p) separation rate
//	sosbench -experiment neighborhood # E12: degree-neighborhood scheme
//	sosbench -experiment forest       # E13: forest reconciliation
//	sosbench -experiment all          # everything, in this order (the default)
//
// -trials multiplies every experiment's repetitions and -seed draws them. A
// protocol experiment is rows of one grid, measured by one runner (measure).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"sosr"
	"sosr/internal/estimator"
	"sosr/internal/graphrecon"
	"sosr/internal/iblt"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, grid); err != nil {
		fmt.Fprintln(os.Stderr, "sosbench:", err)
		os.Exit(2)
	}
}

// run parses args and writes the selected experiments of groups to w.
func run(args []string, w io.Writer, groups []group) error {
	fs := flag.NewFlagSet("sosbench", flag.ContinueOnError)
	fs.SetOutput(w)
	experiment := fs.String("experiment", "all", "which experiment to run (table1, figure1, iblt, sets, estimator, crossover, unknownd, graphs, separation, neighborhood, forest, all)")
	trials := fs.Int("trials", 1, "multiplies every experiment's repetitions (a grid row's coins per instance)")
	seed := fs.Uint64("seed", 1, "master seed")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: want at least 1", *trials)
	}
	if *experiment != "all" && !slices.ContainsFunc(groups, func(g group) bool { return g.name == *experiment }) {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	b := &bench{w: tabwriter.NewWriter(w, 0, 0, 2, ' ', 0), trials: *trials, seed: *seed}
	for _, g := range groups {
		if *experiment == "all" {
			b.printf("\n════ %s ════\n", g.name)
		} else if *experiment != g.name {
			continue
		}
		if g.run != nil {
			g.run(b)
		} else {
			b.runGroup(g)
		}
		if err := b.w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// bench is one run's settings and the tabwriter that aligns its tables.
type bench struct {
	w      *tabwriter.Writer
	trials int
	seed   uint64
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.w, format, args...) }

// row prints one tab-separated line.
func (b *bench) row(cells ...any) { b.printf(strings.Repeat("%v\t", len(cells)-1)+"%v\n", cells...) }

// session is one reconcile: its cost and reported attempts, or its failure.
type session struct {
	bytes, rounds, attempts int
	wrong                   bool // a result without an error that is not Alice's data; must never happen
	class                   string
}

// point is a row measured at one d: instance notes, sessions, time and sums.
type point struct {
	notes                                                []string
	sessions                                             []session
	elapsed                                              time.Duration
	ok, wrong, failed, bytes, rounds, attempts, reported int
	classes                                              map[string]int
}

// measure runs r at d. Instance i is drawn from seed, d and i alone, its
// coins from the instance: rows of one shape meet the same sessions' inputs.
func (r row) measure(seed uint64, d, trials int) point {
	p := point{classes: map[string]int{}}
	for i := range r.instances {
		inst := prng.Mix64(seed + uint64(d)<<32 + uint64(i))
		note, reconcile := r.draw(inst, d)
		p.notes = append(p.notes, note)
		for c := range r.coins * trials {
			start := time.Now()
			st, attempts, right, err := reconcile(prng.Mix64(inst) + uint64(c))
			p.elapsed += time.Since(start)
			s := session{bytes: st.TotalBytes, rounds: st.Rounds, attempts: attempts, wrong: err == nil && !right}
			switch {
			case err != nil:
				s = session{class: class.ReplaceAllString(err.Error(), "$1")}
				p.failed++
				p.classes[s.class]++
			case s.wrong:
				p.wrong++
			default:
				p.ok++
			}
			p.sessions = append(p.sessions, s)
			p.bytes, p.rounds, p.attempts, p.reported = p.bytes+s.bytes, p.rounds+s.rounds, p.attempts+s.attempts, p.reported+min(s.attempts, 1)
		}
	}
	return p
}

// draw builds the instance seeded inst at d, a note on it, and the call that
// reconciles it under a coin seed and judges the result against Alice's data:
// the one place sosbench calls a public entry point. tell is 0 on blind rows.
func (r row) draw(inst uint64, d int) (string, func(coins uint64) (sosr.Stats, int, bool, error)) {
	tell := 1
	if r.blind {
		tell = 0
	}
	switch r.entry {
	case setsOfSets, setsOfMultisets:
		db := workload.RandomDatabase(inst, r.s, r.h, 0.5, nil)
		alice, bob := workload.FlipBits(db, d, prng.New(inst+1)).SetsOfSets(), db.SetsOfSets()
		if r.entry == setsOfSets {
			return "", func(coins uint64) (sosr.Stats, int, bool, error) {
				res, err := sosr.ReconcileSetsOfSets(alice, bob, sosr.Config{Seed: coins, MaxChildSets: r.s, MaxChildSize: r.h, Universe: r.u,
					Protocol: r.proto, KnownDiff: tell * d, Replicas: r.replicas})
				if err != nil {
					return sosr.Stats{}, 0, false, err
				}
				return res.Stats, res.Attempts, setutil.EqualSetOfSets(res.Recovered, alice), nil
			}
		}
		for i := range alice {
			alice[i], bob[i] = append(alice[i], alice[i][:len(alice[i])/2]...), append(bob[i], bob[i][:len(bob[i])/2]...)
		}
		dist := sosr.SetsOfMultisetsDistance(alice, bob)
		return fmt.Sprintf("distance %d", dist), func(coins uint64) (sosr.Stats, int, bool, error) {
			res, err := sosr.ReconcileSetsOfMultisets(alice, bob, sosr.Config{Seed: coins, MaxChildSets: r.s, Protocol: r.proto,
				KnownDiff: tell * 2 * dist, Replicas: r.replicas})
			if err != nil {
				return sosr.Stats{}, 0, false, err
			}
			return res.Stats, 0, sosr.SetsOfMultisetsDistance(res.Recovered, alice) == 0, nil
		}
	case sets, multisets:
		src := prng.New(inst)
		var alice, bob []uint64
		for i := range r.n + d {
			x, k := src.Uint64()%(1<<47), 1
			if r.entry == multisets {
				k += src.Intn(3)
			}
			for side, set := range []*[]uint64{&alice, &bob} {
				if i < r.n || i%2 == side {
					*set = append(*set, slices.Repeat([]uint64{x}, k)...)
				}
			}
		}
		diff, want := sosr.SetDifference(alice, bob), slices.Sorted(slices.Values(alice))
		if r.entry == multisets {
			return fmt.Sprintf("%d elements", len(alice)), func(coins uint64) (sosr.Stats, int, bool, error) {
				rec, st, err := sosr.ReconcileMultisets(alice, bob, tell*2*diff, coins)
				return st, 0, slices.Equal(slices.Sorted(slices.Values(rec)), want), err
			}
		}
		want = slices.Compact(want)
		return "", func(coins uint64) (sosr.Stats, int, bool, error) {
			res, err := sosr.ReconcileSets(alice, bob, sosr.SetConfig{Seed: coins, KnownDiff: tell * diff, UseCharPoly: r.charPoly})
			if err != nil {
				return sosr.Stats{}, 0, false, err
			}
			return res.Stats, 0, slices.Equal(res.Recovered, want), nil
		}
	case graphs, isomorphism:
		cfg, note := sosr.GraphConfig{Scheme: r.scheme, MaxEdits: d}, ""
		base, err := sosr.RandomGraph(r.n, 0.5, inst), error(nil)
		switch r.scheme {
		case sosr.SchemeDegreeOrdering:
			base, cfg.TopDegrees, err = sosr.PlantedSeparatedGraph(r.n, d, 0.4, inst)
			note = fmt.Sprintf("h=%d, edges %d B", cfg.TopDegrees, 8*len(base.Edges))
		case sosr.SchemeDegreeNeighborhood:
			cfg.DegreeThreshold = r.n * 3 / 4
			note = fmt.Sprintf("disjoint %d", sosr.NeighborhoodDisjointness(base, cfg.DegreeThreshold))
		}
		if err != nil {
			panic(fmt.Sprintf("grid row %s: %v", r.name, err))
		}
		alice, bob := sosr.PerturbGraph(base, d-d/2, inst+1), sosr.PerturbGraph(base, d/2, inst+2)
		if r.entry == isomorphism {
			perm, relabelled := prng.New(inst+3).Perm(r.n), sosr.Graph{N: r.n}
			for _, e := range bob.Edges {
				relabelled.Edges = append(relabelled.Edges, [2]int{perm[e[0]], perm[e[1]]})
			}
			exact := sosr.GraphsExactlyIsomorphic(alice, relabelled)
			return note, func(coins uint64) (sosr.Stats, int, bool, error) {
				iso, st, err := sosr.GraphsIsomorphic(alice, relabelled, coins)
				return st, 0, iso == exact, err
			}
		}
		return note, func(coins uint64) (sosr.Stats, int, bool, error) {
			cfg.Seed = coins
			res, err := sosr.ReconcileGraphs(alice, bob, cfg)
			if err != nil {
				return sosr.Stats{}, 0, false, err
			}
			return res.Stats, 0, sosr.GraphsExactlyIsomorphic(res.Recovered, alice), nil
		}
	}
	alice := sosr.RandomForest(r.n, 0.2, inst)
	bob := sosr.PerturbForest(alice, d, inst+1)
	sigma := max(alice.Depth(), bob.Depth())
	return fmt.Sprintf("σ=%d", sigma), func(coins uint64) (sosr.Stats, int, bool, error) {
		res, err := sosr.ReconcileForests(alice, bob, sosr.ForestConfig{Seed: coins, MaxEdits: tell * d, Depth: sigma})
		if err != nil {
			return sosr.Stats{}, 0, false, err
		}
		return res.Stats, 0, sosr.ForestsIsomorphic(res.Recovered, alice), nil
	}
}

// class reduces a failure's message to the last core class it names (the
// cause the others wrap), or leaves it whole: the sentinels are internal.
var class = regexp.MustCompile(`^.*(parent IBLT decode failed|child set recovery failed|failed verification|exhausted retry attempts).*$`)

// meanBytes is the mean wire bytes of the sessions that returned a result.
func (p point) meanBytes() int { return p.bytes / max(p.ok+p.wrong, 1) }

// wilson is the 95 % Wilson score interval on the failure rate.
func (p point) wilson() (lo, hi float64) {
	rate, z2 := float64(p.failed)/float64(len(p.sessions)), 1.96*1.96/float64(len(p.sessions))
	mid, half := (rate+z2/2)/(1+z2), math.Sqrt(z2*rate*(1-rate)+z2*z2/4)/(1+z2)
	return max(mid-half, 0), min(mid+half, 1)
}

// runGroup prints one line a point of g's rows, then g's note.
func (b *bench) runGroup(g group) {
	b.row("row", "shape", "first instance", "d", "wire bytes", "B/d", "rounds", "attempts", "time", "ok", "wrong", "failed", "fail 95% CI", "failure classes")
	for _, r := range g.rows {
		shape := fmt.Sprintf("n=%d", r.n)
		if r.s > 0 {
			shape = fmt.Sprintf("s=%d h=%d u=%d", r.s, r.h, r.u)
		}
		for _, d := range r.ds {
			p := r.measure(b.seed, d, b.trials)
			lo, hi := p.wilson()
			var classes []string
			for _, c := range slices.Sorted(maps.Keys(p.classes)) {
				classes = append(classes, fmt.Sprintf("%s %d", c, p.classes[c]))
			}
			b.row(r.name, shape, p.notes[0], d, p.meanBytes(), div(p.meanBytes(), d),
				div(p.rounds, p.ok+p.wrong), div(p.attempts, p.reported),
				(p.elapsed / time.Duration(len(p.sessions))).Round(time.Microsecond), fmt.Sprintf("%d/%d", p.ok, len(p.sessions)),
				p.wrong, p.failed, fmt.Sprintf("%.2f–%.2f%%", 100*lo, 100*hi), strings.Join(classes, "; "))
		}
	}
	b.printf("%s\n", g.note)
}

// div is x/y as a cell, or "-" when y is 0.
func div(x, y int) string {
	if y == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(x)/float64(y))
}

// figure1 prints a concrete witness for Figure 1.
func (b *bench) figure1() {
	w, err := sosr.FindFigure1Example(5)
	if err != nil {
		panic(err) // a witness exists on five vertices
	}
	b.printf("Figure 1 witness (5 vertices): merging unlabeled graphs is ambiguous.\nG1 edges: %v\nG2 edges: %v\n", w.G1.Edges, w.G2.Edges)
	b.printf("Merge X: add %v to G1 and %v to G2 -> isomorphic results %v\n", w.AddG1X, w.AddG2X, w.MergeX.Edges)
	b.printf("Merge Y: add %v to G1 and %v to G2 -> isomorphic results %v\n", w.AddG1Y, w.AddG2Y, w.MergeY.Edges)
	b.printf("X ≅ Y? %v  (the two valid merges disagree, so the union is ill-defined)\n",
		sosr.GraphsExactlyIsomorphic(w.MergeX, w.MergeY))
}

// iblt sweeps Theorem 2.1's constants (E3): d keys into d × ratio cells
// under k hash functions, 200 decodes a point times -trials.
func (b *bench) iblt() {
	b.row("d", "cells/d", "k", "cells", "wire bytes", "decoded")
	src, reps := prng.New(b.seed), 200*b.trials
	for _, d := range []int{4, 16, 64, 256} {
		for _, ratio := range []float64{1.25, 1.5, 2, 3} {
			for _, k := range []int{3, 4, 5} {
				cells, success := int(float64(d)*ratio), 0
				for r := 0; r < reps; r++ {
					t := iblt.NewUint64(cells, k, src.Uint64())
					for i := 0; i < d; i++ {
						t.InsertUint64(src.Uint64())
					}
					if _, _, err := t.Decode(); err == nil {
						success++
					}
				}
				b.row(d, ratio, k, cells, iblt.SerializedSizeFor(cells, 8, k), fmt.Sprintf("%.1f%%", 100*float64(success)/float64(reps)))
			}
		}
	}
	b.printf("Theorem 2.1: an O(d)-cell table decodes d keys whp; the protocols size tables by iblt.CellsFor(d) = max(2d+10, 16), k = 4: affine in d.\n")
}

// estimator measures the Theorem 3.1 estimator's accuracy and size against the
// strata estimator of [14] (E5): five sketches a point times -trials.
func (b *bench) estimator() {
	b.row("estimator", "d", "mean estimate", "mean error ×", "sketch bytes")
	type sketch interface {
		Add(x uint64, side estimator.Side)
		Estimate() uint64
		SerializedSize() int
	}
	variants := map[string]func(seed uint64) sketch{"strata [14]": func(seed uint64) sketch { return estimator.NewStrata(32, 0, seed) }}
	for _, p := range []estimator.Params{{Replicas: 1, Buckets: 63}, {Replicas: 3, Buckets: 63}, {Replicas: 3, Buckets: 126}, {Replicas: 5, Buckets: 63}} {
		variants[fmt.Sprintf("l0 r=%d b=%d (Thm 3.1)", p.Replicas, p.Buckets)] = func(seed uint64) sketch { return estimator.New(p, seed) }
	}
	src, n := prng.New(b.seed+3), 5*b.trials
	for _, d := range []int{8, 64, 512, 4096} {
		for _, name := range slices.Sorted(maps.Keys(variants)) {
			sum, errSum := uint64(0), 0.0
			for range n {
				e := variants[name](src.Uint64())
				for k := range d {
					e.Add(src.Uint64(), estimator.Side(1+k%2))
				}
				est := e.Estimate()
				sum += est
				errSum += max(float64(est)/float64(d), float64(d)/float64(max(est, 1)))
			}
			b.row(name, d, sum/uint64(n), fmt.Sprintf("%.2f", errSum/float64(n)), variants[name](0).SerializedSize())
		}
	}
	b.printf("The paper's estimator drops the O(log u) strata factor.\n")
}

// separation measures how often honest G(n, p) is separated (E11b): the gap
// between Theorem 5.3's asymptotics and laptop-scale n.
func (b *bench) separation() {
	src := prng.New(b.seed + 5)
	b.row("n", "p", "(h,2,3)-separated", "best h")
	for _, n := range []int{128, 256, 512, 1024} {
		rate, bestH := graphrecon.SeparationRate(n, 0.5, 2, 3, 32, 10, src)
		b.row(n, 0.5, fmt.Sprintf("%.0f%%", rate*100), bestH)
	}
	b.printf("Theorem 5.3 needs n far beyond laptop scale; the degree-ordering experiments therefore\n" +
		"use planted separated graphs (sosr.PlantedSeparatedGraph; the paper's §5, see PAPER.md).\n")
}
