package sosrnet

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sosr/internal/core"
	"sosr/internal/obs"
	"sosr/internal/worktest"
)

// BenchmarkModel times the model driver's fault-free stream on the
// deployments TestModel builds, each changing one thing from the leg before
// it, so that a layer's cost per op kind is a subtraction over the same ops:
//
//	inprocess    the library alone
//	pipe         + a server and client over net.Pipe (framing, handshake, control frames)
//	tcp          + loopback TCP (the kernel)
//	store        + a disk store (the WAL and its fsync, on updates)
//	tcp/nocache  tcp with both ends' caches off
//	tcp/traced   tcp with both tracers sampling every session
//
// Each leg reports, per kind of op (worktest.Meter): ns/op, wire B/op (in
// process, the protocol bytes), allocs/op of the whole process, and the
// server's time per session stage as its sosr_stage_seconds sums it. A
// reconcile's time includes drawing Bob's replica, as on every leg. Hosting,
// refused updates and idle steps run off the clock; every op must end as its
// row says. tcp/clients=8 replays the stream's reconciles from eight clients
// at once, each against the final version of its dataset (a reconcile changes
// nothing it reads), and reports them together as kind "all". sosrshard's
// BenchmarkModel runs the same stream on a grid.
func BenchmarkModel(b *testing.B) {
	if !slices.Equal(worktest.Stages[:], stageNames[:stageDone]) {
		b.Fatalf("worktest.Stages %v, the server's stages %v", worktest.Stages, stageNames[:stageDone])
	}
	ops := worktest.Stream(modelSeed, worktest.Shape{Bases: worktest.Bases})
	for _, spec := range []legSpec{
		{name: "inprocess", local: true},
		{name: "pipe"},
		{name: "tcp", tcp: true},
		{name: "store", tcp: true, disk: true},
		{name: "tcp/nocache", tcp: true, tune: func(s *Server, c *Client) { s.CacheBytes, c.CacheBytes = -1, -1 }},
		{name: "tcp/traced", tcp: true, tune: func(s *Server, c *Client) {
			s.Trace, c.Trace = &obs.Tracer{SampleRate: 1}, &obs.Tracer{SampleRate: 1}
		}},
	} {
		b.Run(spec.name, func(b *testing.B) {
			m := worktest.NewMeter(b)
			for range b.N {
				g := &legGauge{l: newLeg(b, spec)}
				for _, op := range ops {
					g.step(m, op)
				}
			}
			m.Report()
		})
	}
	b.Run("tcp/clients=8", func(b *testing.B) {
		m := worktest.NewMeter(b)
		for range b.N {
			g := &legGauge{l: newLeg(b, legSpec{name: "tcp/clients=8", tcp: true})}
			for _, op := range ops {
				g.step(nil, op)
			}
			g.replay(m, ops, 8)
		}
		m.Report()
	})
}

// legGauge is what a Meter reads of a modelLeg.
type legGauge struct {
	l       *modelLeg
	payload int64 // the protocol bytes of the leg's in-process runs
}

func (g *legGauge) Settle() {
	if g.l.srv != nil {
		g.l.settle()
	}
}

func (g *legGauge) Counts() worktest.Counts {
	l := g.l
	if l.srv == nil {
		return worktest.Counts{Bytes: g.payload}
	}
	c := worktest.Counts{Bytes: l.ln.Bytes.Load()}
	c.AddStages(l.srv.Registry())
	return c
}

// step runs op on the leg, a reconcile or an update under m.
func (g *legGauge) step(m *worktest.Meter, op worktest.Op) {
	l := g.l
	l.at = fmt.Sprintf("seed %d, %v", modelSeed, op)
	switch op.Do {
	case worktest.Host:
		l.m.Apply(op)
		rec := l.record(l.m.Cur(op.Base)) // builds a graph's fixture off the clock
		if l.srv != nil {
			if err := l.srv.Host(rec, nil, 0); err != nil {
				l.fatalf("host: %v", err)
			}
		}
	case worktest.Update, worktest.BadUpdate:
		if l.srv != nil {
			var err error
			if op.Do == worktest.Update {
				m.Op(g, "update", func() { err = l.update(op) })
			} else {
				err = l.update(op)
			}
			if (err != nil) != (op.Do == worktest.BadUpdate) {
				l.fatalf("update: %v", err)
			}
		}
		l.m.Apply(op)
	case worktest.Reconcile:
		d := l.m.Cur(op.Base)
		var o outcome
		m.Op(g, d.Kind, func() {
			if o = l.run(op, d, l.c); l.c == nil {
				g.payload += int64(o.stats.TotalBytes)
			}
		})
		g.ends(op, o.err)
	}
}

// ends fails the benchmark unless a reconcile ended as its row says.
func (g *legGauge) ends(op worktest.Op, err error) {
	gaveUp := error(ErrGaveUp)
	if g.l.c == nil {
		gaveUp = core.ErrGaveUp
	}
	if !op.Row.EndsIn(err, classOf(err, gaveUp)) {
		g.l.fatalf("%v, want the row's class %v", err, op.Row.Fails)
	}
}

// replay runs every reconcile of ops again from n clients at once, as one
// stretch of m's clock: each against the final version of the dataset it ran
// against, which the server still hosts.
func (g *legGauge) replay(m *worktest.Meter, ops []worktest.Op, n int) {
	l := g.l
	final := map[string]*worktest.Data{}
	for _, d := range l.m.All {
		final[d.Name] = d
	}
	var todo []worktest.Op
	for _, op := range ops {
		if op.Do == worktest.Reconcile {
			todo = append(todo, op)
		}
	}
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = l.client()
		defer clients[i].Close()
	}
	errs := make([]error, len(todo))
	m.Ops(g, "all", len(todo), func() {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(todo)); i = next.Add(1) - 1 {
					errs[i] = l.run(todo[i], final[todo[i].Name], c).err
				}
			}()
		}
		wg.Wait()
	})
	for i, op := range todo {
		l.at = fmt.Sprintf("seed %d, %v, replayed", modelSeed, op)
		g.ends(op, errs[i])
	}
}
