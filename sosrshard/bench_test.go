package sosrshard

import (
	"fmt"
	"testing"

	"sosr/internal/worktest"
	"sosr/sosrnet"
)

// BenchmarkModel/grid times the model driver's fault-free stream — the one
// sosrnet's BenchmarkModel runs — on TestModel's 3 × 2 grid, per kind of op
// (worktest.Meter): routed updates and fan-outs of the set, multiset and
// sets-of-sets bases; the steps of the graph and forest bases, which a grid
// does not host, are skipped, so grid − tcp is split, merge and fan-out over
// the same ops. Stage times sum every server's sosr_stage_seconds. Hosting,
// refused updates and idle steps run off the clock; every fan-out must end as
// its row says.
func BenchmarkModel(b *testing.B) {
	ops := worktest.Stream(1, worktest.Shape{Bases: worktest.Bases})
	b.Run("grid", func(b *testing.B) {
		m := worktest.NewMeter(b)
		for range b.N {
			g := &gridGauge{gridLeg: newGridLeg(b)}
			for _, op := range ops {
				g.step(m, op)
			}
		}
		m.Report()
	})
}

// gridGauge is what a Meter reads of a gridLeg: after an op that ends well,
// the servers have logged sessions finished up to want; after a failed
// fan-out, whose shards end on their own time, the grid must fall quiet.
type gridGauge struct {
	*gridLeg
	want   int64
	failed bool
}

func (g *gridGauge) Settle() {
	if g.failed {
		g.quiesce()
		return
	}
	g.d.sessions.Wait(g.t, g.want)
}

func (g *gridGauge) Counts() worktest.Counts {
	var c worktest.Counts
	for i, group := range g.d.all {
		for j, srv := range group {
			c.Bytes += g.d.allLn[i][j].Bytes.Load()
			c.AddStages(srv.Registry())
		}
	}
	return c
}

// step runs op on the grid, a fan-out or a routed update under m.
func (g *gridGauge) step(m *worktest.Meter, op worktest.Op) {
	if k := worktest.Kinds[op.Base]; k == "graph" || k == "forest" {
		return
	}
	g.at = fmt.Sprintf("seed 1, %v, leg grid", op)
	g.want, g.failed = g.d.sessions.Load(), false
	switch op.Do {
	case worktest.Host:
		g.m.Apply(op)
		g.host(g.d.co, g.m.Cur(op.Base))
	case worktest.Update, worktest.BadUpdate:
		var err error
		if op.Do == worktest.Update {
			m.Op(g, "update", func() { err = update(g.d.co, op) })
		} else {
			err = update(g.d.co, op)
		}
		if (err != nil) != (op.Do == worktest.BadUpdate) {
			g.fatalf("routed update: %v", err)
		}
		g.m.Apply(op)
	case worktest.Reconcile:
		d := g.m.Cur(op.Base)
		var err error
		g.want += int64(g.d.topo.NumShards()) // one session a shard
		m.Op(g, d.Kind, func() {
			_, _, err = g.run(op, d)
			g.failed = err != nil
		})
		if !op.Row.EndsIn(err, classOf(err, sosrnet.ErrGaveUp)) {
			g.fatalf("%v, want the row's class %v", err, op.Row.Fails)
		}
	}
}
