package main

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sosr/internal/iblt"
	"sosr/internal/raceflag"
)

// The grid's rows are measured here on -seed 1 with fixed coins, so every
// assertion below is deterministic. They run shrunk: at most a few instances
// and coins a point, fewer under -short and under the race detector (as
// forest.TestFailureGuard does), where Table 1's costly shape keeps only its
// first two d values.

// small reports whether the grid runs at its smallest.
func small() bool { return testing.Short() || raceflag.Enabled }

// shrunk is r with at most instances × coins sessions a point.
func shrunk(r row, instances, coins int) row {
	r.instances, r.coins = min(r.instances, instances), min(r.coins, coins)
	return r
}

// find returns the row of group named name of size s (sets of sets) or n.
func find(t *testing.T, group, name string, size int) row {
	t.Helper()
	for _, g := range grid {
		for _, r := range g.rows {
			if g.name == group && r.name == name && max(r.s, r.n) == size {
				return r
			}
		}
	}
	t.Fatalf("no %s row %q of size %d", group, name, size)
	return row{}
}

var (
	measuredMu sync.Mutex
	measured   = map[string]point{}
)

// at measures r at d once per test binary.
func at(r row, d int) point {
	key := fmt.Sprint(r.name, r.s, r.n, r.instances, r.coins, d)
	measuredMu.Lock()
	defer measuredMu.Unlock()
	if p, ok := measured[key]; ok {
		return p
	}
	p := r.measure(1, d, 1)
	measured[key] = p
	return p
}

// The sizes (s) of Table 1's shape (48, 16384) and of the failure curve's
// (16, 1024).
const table1Shape, failureShape = 48, 16

// table1Ds is the d values measured at Table 1's shape.
func table1Ds() []int {
	if small() {
		return dsTable1[:2]
	}
	return dsTable1
}

// failureRow is the failure-curve row named name, shrunk.
func failureRow(t *testing.T, name string) row {
	t.Helper()
	if small() {
		return shrunk(find(t, "table1", name, failureShape), 5, 2)
	}
	return shrunk(find(t, "table1", name, failureShape), 20, 5)
}

// meanBytes is the mean bytes of the table1 row named name at shape and d.
func meanBytes(t *testing.T, name string, shape, d int) int {
	t.Helper()
	if shape == failureShape {
		return at(failureRow(t, name), d).meanBytes()
	}
	return at(shrunk(find(t, "table1", name, shape), 1, 1), d).meanBytes()
}

// TestEveryExperimentRuns drives the whole list at one instance and one coin
// a row: every experiment prints its header, every grid row prints a line at
// each of its d values, no line counts a wrong result, and a bad flag is an
// error.
func TestEveryExperimentRuns(t *testing.T) {
	var one []group
	points := 0
	for _, g := range grid {
		var rows []row
		for _, r := range g.rows {
			if small() && r.s == 48 {
				r.ds = r.ds[:1]
			}
			rows = append(rows, shrunk(r, 1, 1))
			points += len(r.ds)
		}
		g.rows = rows
		one = append(one, g)
	}
	var out strings.Builder
	if err := run([]string{"-experiment", "all"}, &out, one); err != nil {
		t.Fatal(err)
	}
	for _, g := range grid {
		if !strings.Contains(out.String(), "════ "+g.name+" ════") {
			t.Errorf("experiment %s printed no header", g.name)
		}
	}
	// A point's line reads "… ok/sessions wrong failed lo–hi% …".
	lines := regexp.MustCompile(`(?m)^(.*?) +(\d+)/1 +(\d+) +(\d+) +[\d.]+–[\d.]+%`).FindAllStringSubmatch(out.String(), -1)
	if len(lines) != points {
		t.Fatalf("%d point lines, want one for each of the grid's %d:\n%s", len(lines), points, out.String())
	}
	for _, l := range lines {
		if l[3] != "0" {
			t.Errorf("%s: %s wrong results", l[1], l[3])
		}
	}
	if err := run([]string{"-experiment", "bogus"}, io.Discard, one); err == nil {
		t.Error("-experiment bogus ran without an error")
	}
	if err := run([]string{"-trials", "0"}, io.Discard, one); err == nil {
		t.Error("-trials 0 ran without an error")
	}
}

// TestTable1 pins Table 1's byte ordering as it holds here, which is not the
// paper's (README "Performance" records where they differ).
func TestTable1(t *testing.T) {
	for _, d := range table1Ds() {
		naive, nested := meanBytes(t, "naive (Thm 3.3)", table1Shape, d), meanBytes(t, "nested (Thm 3.5)", table1Shape, d)
		cascade, multi := meanBytes(t, "cascade (Thm 3.7)", table1Shape, d), meanBytes(t, "multiround (Thm 3.9)", table1Shape, d)
		// At (48, 16384) the order is cascade < nested < multiround < naive at
		// every d. Until protoVersion 6 multi-round passed nested from d = 8
		// and straddled cascade at d = 16; version 6 shrank a child-IBLT cell
		// from 18 to 8 bytes (2-byte count and key sum at h = u = 16384,
		// 4-byte checksum), so nested and cascade fell by half, while
		// multi-round, whose pair tables keep 4-byte counts and 8-byte key
		// sums and whose estimators did not move, fell 2–5 %.
		if !(cascade < nested && nested < multi && multi < naive) {
			t.Errorf("(48, 16384) d=%d: naive %d, nested %d, cascade %d, multiround %d: want cascade < nested < multiround < naive", d, naive, nested, cascade, multi)
		}
	}
	for _, d := range dsTable1 {
		naive, nested := meanBytes(t, "naive", failureShape, d), meanBytes(t, "nested", failureShape, d)
		cascade, multi := meanBytes(t, "cascade", failureShape, d), meanBytes(t, "multiround", failureShape, d)
		// At (16, 1024) cascade is cheapest up to d = 4 and naive's 128-byte
		// bitmap children from d = 8, and multi-round costs more than cascade
		// at every d. Until protoVersion 6 naive was cheapest at every d and
		// multi-round undercut cascade from d = 8: version 6 cut naive's
		// per-cell overhead from 12 to 5 bytes but cascade's child cells from
		// 18 to 8 bytes (2-byte counts at h = 1024). Since protoVersion 8 a
		// table keys a child set by the narrower of its child IBLT and its
		// bitmap, so nested is the naive table here and ties it, and
		// cascade's third level is a bitmap level: 8 212 B at d = 8 where it
		// was 8 372 B. At (48, 16384) every child key stays narrower than the
		// 2 048-byte bitmap, and no row moved.
		cheapest := naive
		if d <= 4 {
			cheapest = cascade
		}
		if cheapest != min(naive, nested, cascade, multi) {
			t.Errorf("(16, 1024) d=%d: naive %d, nested %d, cascade %d, multiround %d: want %s the cheapest", d, naive, nested, cascade, multi, map[bool]string{true: "cascade", false: "naive"}[d <= 4])
		}
		if multi <= cascade {
			t.Errorf("(16, 1024) d=%d: multiround %d ≤ cascade %d", d, multi, cascade)
		}
	}
}

// logs returns log x and log y with their means taken out.
func logs(xs, ys []float64) (lx, ly []float64) {
	var mx, my float64
	for i := range xs {
		lx, ly = append(lx, math.Log(xs[i])), append(ly, math.Log(ys[i]))
		mx, my = mx+lx[i]/float64(len(xs)), my+ly[i]/float64(len(xs))
	}
	for i := range lx {
		lx[i], ly[i] = lx[i]-mx, ly[i]-my
	}
	return lx, ly
}

// slope is the least-squares slope of centred ys against centred xs.
func slope(xs, ys []float64) float64 {
	var sxx, sxy float64
	for i := range xs {
		sxx, sxy = sxx+xs[i]*xs[i], sxy+xs[i]*ys[i]
	}
	return sxy / sxx
}

// parentCell is one cell of a parent table at both Table 1 shapes: a 1-byte
// count (s < 256), the key and a 4-byte checksum. The key is the narrower of a
// whole child set (an h-bit bitmap, whole bytes, since u = h) and a (child
// IBLT, hash) pair — the child table's cells of a 2-byte count (h ≥ 256), a
// 2-byte key sum (u ≤ 2^16) and a 4-byte checksum, then the 8-byte set hash;
// it reports whether the key is the whole set.
func parentCell(childCells, whole int) (int, bool) {
	child := iblt.CellsSize(childCells, 2, 0, 2) + 8
	return 1 + min(child, whole) + 4, child >= whole
}

// nestedBytes is Theorem 3.5's message at d (d̂ = d): one table of
// CellsFor(2d) cells keyed by CellsFor(d)-cell child tables or whole sets,
// and the 8-byte parent hash.
func nestedBytes(d, whole int) int {
	cell, _ := parentCell(iblt.CellsFor(d), whole)
	return iblt.RoundCells(iblt.CellsFor(2*d), 0)*cell + 8
}

// cascadeBytes is Algorithm 2's message at d < h: up to t = ⌈log₂ d⌉ levels,
// level 1 of CellsFor(2d) cells and level i of CellsFor(max(min(9d/2^(i+1),
// d), 2)), keyed by CellsTight(2^i)-cell child tables and ending at the first
// level keyed by whole sets, and the 8-byte parent hash.
func cascadeBytes(d, whole int) int {
	n := 8
	for i := 1; i <= max(bits.Len(uint(d-1)), 1); i++ {
		cells := iblt.CellsFor(2 * d)
		if i > 1 {
			cells = iblt.CellsFor(max(min((9*d)>>(i+1), d), 2))
		}
		cell, full := parentCell(iblt.CellsTight(1<<i), whole)
		n += iblt.RoundCells(cells, 0) * cell
		if full {
			break
		}
	}
	return n
}

// TestScalingLaws pins how bytes grow: exact laws where a table's size is a
// formula of d, and log-log slopes over d with the tolerance the theorem
// leaves.
func TestScalingLaws(t *testing.T) {
	// Nested and cascade size every table from d alone, and their cell
	// widths from the bytes s, h and u need. A whole child set is 128 B at
	// (16, 1024) and 2 048 B at (48, 16384). At (16, 1024) nested's child key
	// is never narrower, so its message is the naive one, and cascade's third
	// level is keyed by whole sets: 8 212 B at d = 8 and 12 972 B at d = 16.
	// At (48, 16384) both keep their child keys.
	for _, c := range []struct {
		name, big string
		bytes     func(d, whole int) int
	}{
		{"nested", "nested (Thm 3.5)", nestedBytes},
		{"cascade", "cascade (Thm 3.7)", cascadeBytes},
	} {
		for _, d := range table1Ds() {
			at16, at48 := meanBytes(t, c.name, failureShape, d), meanBytes(t, c.big, table1Shape, d)
			if want16, want48 := c.bytes(d, 1024/8), c.bytes(d, 16384/8); at16 != want16 || at48 != want48 {
				t.Errorf("%s d=%d: %d B at (16, 1024), %d B at (48, 16384), want %d and %d", c.name, d, at16, at48, want16, want48)
			}
		}
	}
	for d, want := range map[int]int{8: 8212, 16: 12972} {
		if got := cascadeBytes(d, 1024/8); got != want {
			t.Errorf("cascade law at (16, 1024) d=%d: %d B, want %d", d, got, want)
		}
	}
	for _, d := range dsTable1 {
		if nested, naive := meanBytes(t, "nested", failureShape, d), meanBytes(t, "naive", failureShape, d); nested != naive {
			t.Errorf("(16, 1024) d=%d: nested %d B, naive %d B; want the naive table", d, nested, naive)
		}
	}
	// Naive sends one parent table of iblt.CellsFor(2d̂) cells, each a 1-byte
	// count (s < 256), a key and a 4-byte checksum, and 8 B besides: affine in
	// d, not linear. The key is a child set: an h-bit bitmap where u = h, and
	// at u = 2^40 a list — a length as wide as h needs (2 bytes for
	// h = 16 384) and h elements as wide as u needs (5 bytes).
	for _, c := range []struct {
		name     string
		shape, h int
		key      int
		ds       []int
	}{
		{"naive (Thm 3.3)", table1Shape, 16384, 16384 / 8, table1Ds()},
		{"naive list (u=2^40)", table1Shape, 16384, 2 + 5*16384, table1Ds()},
		{"naive", failureShape, 1024, 1024 / 8, dsTable1},
	} {
		for _, d := range c.ds {
			if got, want := meanBytes(t, c.name, c.shape, d), iblt.CellsSize(iblt.CellsFor(2*d), c.key, 0, 1)+8; got != want {
				t.Errorf("%s at h=%d d=%d: %d B, want %d", c.name, c.h, d, got, want)
			}
		}
	}
	// Over d = 2…16 at (16, 1024): cascade's O(d log min(d, h)) is at least
	// linear and at most d·log d's slope (1.67); multi-round's O(d) after
	// round 1's hash table of fixed cells is under linear at small d (0.74
	// measured), allowed 0.6–1.25. At (48, 16384), where nested keeps its
	// child keys, its O(d̂·d) with d̂ = d is at least linear and at most
	// quadratic (1.10 measured).
	for _, c := range []struct {
		name   string
		shape  int
		lo, hi float64
	}{{"cascade", failureShape, 1, 1.67}, {"nested (Thm 3.5)", table1Shape, 1, 2}, {"multiround", failureShape, 0.6, 1.25}} {
		var xs, ys []float64
		for _, d := range dsTable1 {
			xs, ys = append(xs, float64(d)), append(ys, float64(meanBytes(t, c.name, c.shape, d)))
		}
		if s := slope(logs(xs, ys)); s < c.lo || s > c.hi {
			t.Errorf("%s: log-log slope of bytes over d %.2f, want %.2f–%.2f", c.name, s, c.lo, c.hi)
		}
	}
	// Sets: Corollary 2.2 sends one table of CellsFor(d) 8-byte cells and
	// 8 B besides; Theorem 2.3 sends d evaluations of 8 B and 16 B besides.
	for _, name := range []string{"IBLT (Cor 2.2)", "charpoly (Thm 2.3)"} {
		r := shrunk(find(t, "sets", name, 1<<14), 1, 1)
		for _, d := range r.ds {
			want := iblt.SerializedSizeFor(iblt.CellsFor(d), 8, 0) + 8
			if r.charPoly {
				want = 8*d + 16
			}
			if got := at(r, d).meanBytes(); got != want {
				t.Errorf("%s d=%d: %d B, want %d", name, d, got, want)
			}
		}
	}
	// Forests: Theorem 6.1's known-d run reconciles under the budget
	// 4·d·(σ+2)+16, linear in σ. Within each bound row (one n, instances of
	// varying σ) bytes against the budget have a log-log slope of 0.8–1.25
	// (0.95–1.12 measured): cascade's log factor barely moves at one n.
	var xs, ys []float64
	for _, n := range []int{200, 600, 1800} {
		r := find(t, "forest", "bound d (Thm 6.1)", n)
		for _, d := range r.ds {
			var bs, bytes []float64
			p := at(r, d)
			for i, s := range p.sessions {
				sigma, err := strconv.Atoi(strings.TrimPrefix(p.notes[i/r.coins], "σ="))
				if err != nil || s.class != "" {
					t.Fatalf("forest n=%d: note %q, failure %q", n, p.notes[i/r.coins], s.class)
				}
				bs, bytes = append(bs, float64(4*d*(sigma+2)+16)), append(bytes, float64(s.bytes))
			}
			lx, ly := logs(bs, bytes)
			xs, ys = append(xs, lx...), append(ys, ly...)
		}
	}
	if s := slope(xs, ys); s < 0.8 || s > 1.25 {
		t.Errorf("forest: log-log slope of bytes over the budget %.2f, want 0.8–1.25", s)
	}
}

// failureBudget is the per-session failure budget of a known-d sets-of-sets
// row at Replicas: 1: the row breaks it when the Wilson 95 % lower bound on
// its failure rate exceeds it. The full grid measured at most 2.3 % (cascade
// at d = 2: 23 of 1 000, 1.5–3.4 %), all of it parent-table and child-set
// decode failures.
const failureBudget = 0.03

// TestFailureBudget holds the failure curve at (16, 1024) to its budget, and
// shows replicas independent: core.Replicated draws coins.Sub("replica", r),
// so replica 0 of a Replicas: 3 session is the Replicas: 1 session on the
// same coin. Where that fails, Replicas: 3 succeeds on a later attempt;
// elsewhere it is the same session, at the same bytes.
func TestFailureBudget(t *testing.T) {
	rescued := 0
	for _, name := range []string{"naive", "nested", "cascade", "multiround"} {
		one, three := failureRow(t, name), failureRow(t, name+" ×3")
		for _, d := range one.ds {
			p1, p3 := at(one, d), at(three, d)
			if lo, hi := p1.wilson(); lo > failureBudget {
				t.Errorf("%s d=%d: failure rate %.2f–%.2f %% breaks the %.0f %% budget", name, d, 100*lo, 100*hi, 100*failureBudget)
			}
			for i, s1 := range p1.sessions {
				s3 := p3.sessions[i]
				switch {
				case s1.wrong || s3.wrong:
					t.Errorf("%s d=%d coin %d: a wrong result", name, d, i)
				case s1.attempts > one.replicas || s3.attempts > three.replicas:
					t.Errorf("%s d=%d coin %d: %d and %d attempts", name, d, i, s1.attempts, s3.attempts)
				case s1.class != "" && (s3.class != "" || s3.attempts < 2):
					t.Errorf("%s d=%d coin %d: Replicas 1 failed (%s), Replicas 3 returned %q after %d attempts", name, d, i, s1.class, s3.class, s3.attempts)
				case s1.class == "" && (s3.attempts != 1 || s3.bytes != s1.bytes):
					t.Errorf("%s d=%d coin %d: Replicas 3 took %d attempts and %d B, Replicas 1 one and %d B", name, d, i, s3.attempts, s3.bytes, s1.bytes)
				case s1.class != "":
					rescued++
				}
			}
		}
	}
	t.Logf("%d one-replica failures, each rescued by a later replica", rescued)
}
