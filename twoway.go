package sosr

import (
	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Two-way (mutual) reconciliation, the §1 extension: both parties end with
// the union. Well-defined for sets and sets of sets (unlike unlabeled
// graphs — see FindFigure1Example for why graph unions are ambiguous).

// TwoWayResult reports a mutual sets-of-sets reconciliation.
type TwoWayResult struct {
	// Union is the common final parent set both parties hold.
	Union [][]uint64
	// ToAlice are child sets Alice was missing; ToBob are child sets Bob was
	// missing.
	ToAlice, ToBob [][]uint64
	Stats          Stats
}

// ReconcileSetsOfSetsTwoWay runs the one-way run ReconcileSetsOfSets would
// (per cfg) and a return leg so that both parties end with alice ∪ bob. One
// extra round carrying exactly the child sets Alice lacked.
func ReconcileSetsOfSetsTwoWay(alice, bob [][]uint64, cfg Config) (*TwoWayResult, error) {
	run, _, err := oneWay(cfg, alice, bob)
	if err != nil {
		return nil, err
	}
	res, err := core.TwoWay(transport.New(), hashing.NewCoins(cfg.Seed), alice, bob, run)
	if err != nil {
		return nil, err
	}
	return &TwoWayResult{
		Union:   res.Union,
		ToAlice: res.ToAlice,
		ToBob:   res.ToBob,
		Stats:   res.Stats,
	}, nil
}

// ReconcileSetsTwoWay mutually reconciles plain sets: both parties end with
// the union. Built on the one-way protocol plus an optimal return leg.
func ReconcileSetsTwoWay(alice, bob []uint64, cfg SetConfig) (union []uint64, stats Stats, err error) {
	res, err := ReconcileSets(alice, bob, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	// Bob knows OnlyB = B \ A; shipping it back gives Alice the union too.
	sess := transport.New()
	// Reconstruct the stats: the one-way leg already happened inside
	// ReconcileSets; model the return leg explicitly.
	back := setutil.Encode(res.OnlyB)
	sess.Send(transport.Bob, "twoway-return", back)
	union = setutil.ApplyDiff(setutil.Canonical(alice), res.OnlyB, nil)
	stats = res.Stats
	stats.Rounds++
	stats.TotalBytes += len(back)
	stats.BobBytes += len(back)
	stats.Messages++
	return union, stats, nil
}
