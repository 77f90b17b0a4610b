package sosrshard

import (
	"strconv"

	"sosr/internal/obs"
)

// Client-side fan-out metrics. Instrumentation is opt-in: assign a registry
// to Client.Obs / Coordinator.Obs before first use and scrape it yourself
// (or merge it into a server registry — family registration is idempotent).
// With Obs nil nothing is registered or recorded.
//
//	sosr_shard_session_seconds{shard}   per-shard session latency in a fan-out
//	sosr_shard_straggler_seconds        spread (max-min) across one fan-out
//	sosr_shard_fanouts_total{status}    fanned-out reconciles (ok|error)
//	sosr_shard_failovers_total{shard}   replica attempts lost to conn errors
//	sosr_shard_hedges_total{outcome}    hedge races (launched|win|loss)
//	sosr_shard_updates_total{shard}     routed coordinator mutations per shard
type clientMetrics struct {
	session   *obs.HistogramVec
	straggler *obs.Histogram
	fanouts   *obs.CounterVec
	failovers *obs.CounterVec
	hedges    *obs.CounterVec
}

func (c *Client) metrics() *clientMetrics {
	if c.Obs == nil {
		return nil
	}
	c.obsOnce.Do(func() {
		r := c.Obs
		c.met = &clientMetrics{
			session: r.Histogram("sosr_shard_session_seconds",
				"Per-shard session latency within a fanned-out reconcile.", nil, "shard"),
			straggler: r.Histogram("sosr_shard_straggler_seconds",
				"Latency spread (slowest minus fastest shard) per fan-out: the cost of waiting for stragglers.",
				nil).With(),
			fanouts: r.Counter("sosr_shard_fanouts_total",
				"Fanned-out reconciles by outcome.", "status"),
			failovers: r.Counter("sosr_shard_failovers_total",
				"Replica attempts that failed with a connection-level error and failed over.", "shard"),
			hedges: r.Counter("sosr_shard_hedges_total",
				"Hedged replica races by outcome: launched (timer fired, second replica raced), win (the hedge answered first), loss (the original did).", "outcome"),
		}
	})
	return c.met
}

// countUpdate records one routed mutation applied to shard i.
func (co *Coordinator) countUpdate(i int) {
	if co.Obs == nil {
		return
	}
	co.obsOnce.Do(func() {
		co.updates = co.Obs.Counter("sosr_shard_updates_total",
			"Coordinator mutations routed to each owning shard.", "shard")
	})
	co.updates.With(strconv.Itoa(i)).Inc()
}
