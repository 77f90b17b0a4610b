package worktest

import (
	"runtime"
	"testing"
	"time"

	"sosr/internal/obs"
)

// Stages are the server session stages a Meter reads: the label values of
// sosrnet's sosr_stage_seconds{stage} but done, which is the whole session.
var Stages = [...]string{"hello", "estimate", "encode", "transfer"}

// Counts is what a benchmark leg has moved and timed so far.
type Counts struct {
	// Bytes is what the leg's listeners moved; in process, the protocol
	// bytes its runs reported.
	Bytes int64
	// Stages sums the leg's servers' sosr_stage_seconds per stage of
	// Stages, in seconds; zero in process.
	Stages [len(Stages)]float64
}

// AddStages adds the stage sums of a server's registry to c.
func (c *Counts) AddStages(reg *obs.Registry) {
	for i, st := range Stages {
		if h := reg.GetHistogram("sosr_stage_seconds", st); h != nil {
			c.Stages[i] += h.Sum()
		}
	}
}

// A Leg is what a Meter reads around each op, off the clock.
type Leg interface {
	// Settle waits until the leg's servers have closed the books of every
	// session so far: their stage times observed, their bytes moved.
	Settle()
	Counts() Counts
}

// Meter measures a benchmark leg op by op and reports its cost per kind of
// op: on the clock the op's wall time, and off it the bytes the leg moved, the
// objects the whole process allocated (both ends of a session are in it) and
// the servers' time in each stage, once the leg has settled.
type Meter struct {
	b     *testing.B
	costs map[string]*cost
}

type cost struct {
	n      int
	took   time.Duration
	bytes  int64
	allocs uint64
	stages [len(Stages)]float64
}

// meterKinds is the order a Meter reports kinds in: each reconcile kind, an
// update, and "all" for a leg that meters its sessions together.
var meterKinds = []string{"set", "multiset", "sos", "graph", "forest", "update", "all"}

// NewMeter returns a Meter that reports to b. It stops b's timer: only the
// ops it measures are on the clock.
func NewMeter(b *testing.B) *Meter {
	b.StopTimer()
	return &Meter{b: b, costs: map[string]*cost{}}
}

// Op measures run as one op of kind on leg. A nil Meter runs it unmeasured.
func (m *Meter) Op(leg Leg, kind string, run func()) { m.Ops(leg, kind, 1, run) }

// Ops measures run as n ops of kind on leg, as one stretch of the clock.
func (m *Meter) Ops(leg Leg, kind string, n int, run func()) {
	if m == nil {
		run()
		return
	}
	before := leg.Counts()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	m.b.StartTimer()
	t0 := time.Now()
	run()
	took := time.Since(t0)
	m.b.StopTimer()
	leg.Settle()
	runtime.ReadMemStats(&ms)
	after := leg.Counts()
	c := m.costs[kind]
	if c == nil {
		c = &cost{}
		m.costs[kind] = c
	}
	c.n += n
	c.took += took
	c.bytes += after.Bytes - before.Bytes
	c.allocs += ms.Mallocs - mallocs
	for i := range c.stages {
		c.stages[i] += after.Stages[i] - before.Stages[i]
	}
}

// Report reports each kind's mean cost per op: <kind>-ns/op, <kind>-B/op and
// <kind>-allocs/op, and <kind>-<stage>-ns/op for the kinds whose sessions a
// server timed. The framework's own ns/op, the clock over a whole pass of the
// leg, is suppressed.
func (m *Meter) Report() {
	m.b.ReportMetric(0, "ns/op")
	for _, kind := range meterKinds {
		c := m.costs[kind]
		if c == nil {
			continue
		}
		n := float64(c.n)
		m.b.ReportMetric(float64(c.took.Nanoseconds())/n, kind+"-ns/op")
		m.b.ReportMetric(float64(c.bytes)/n, kind+"-B/op")
		m.b.ReportMetric(float64(c.allocs)/n, kind+"-allocs/op")
		if c.stages == [len(Stages)]float64{} {
			continue
		}
		for i, st := range Stages {
			m.b.ReportMetric(c.stages[i]*1e9/n, kind+"-"+st+"-ns/op")
		}
	}
}
