package sosrnet

import (
	"errors"
	"fmt"

	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/forest"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/setrecon"
)

// The server's plans, one per kind: what a hello resolves to (the `plan`
// column of the kind table) and the arithmetic serveFlow calls back for —
// the bound an estimator probe yields, the payload of attempt k, the rule
// that ends a schedule. Each plan also records on the session trace what its
// payload may scale with, so the bound audit reads every kind alike. A plan
// lives in its field of the session record, which its connection reuses.

// ---- set / multiset ----

// setPlan serves a set, or a multiset as its packed set.
type setPlan struct {
	rec *sessionRecord
	fl  *flow
	d   int // the hello's bound, or the estimate from Bob's probe
}

func planSet(_ *Server, rec *sessionRecord, _ *acceptMsg) (alicePlan, error) {
	h, tr := &rec.h, &rec.tr
	pl := &rec.set
	*pl = setPlan{rec: rec, fl: h.setFlow(), d: h.D}
	rec.proto = "iblt"
	tr.bounds(h.D, h.D)
	tr.audit(h.D, setCellBytes)
	switch pl.fl {
	case &flowSetCharPoly:
		rec.proto = "charpoly"
		tr.audit(h.D, 8) // one field element per difference
		if h.D <= 0 {
			return pl, errors.New("charpoly requires a positive difference bound")
		}
		// Encoding costs O(n·d) field evaluations before any byte is sent;
		// bound the work by the hosted set, not just MaxBound — a difference
		// beyond this is cheaper over the IBLT path anyway.
		if limit := 4*len(rec.view.set) + 1024; h.D > limit {
			return pl, fmt.Errorf("%w: charpoly bound %d exceeds work limit %d for this dataset (use the IBLT variant)", ErrUnsupported, h.D, limit)
		}
	case &flowSetUnknownD:
		rec.proto = "iblt-unknown"
	}
	return pl, nil
}

func (pl *setPlan) detail() string        { return fmt.Sprintf("d=%d", pl.rec.h.D) }
func (pl *setPlan) serve(s *Server) error { return s.serveFlow(pl.rec, pl.fl, pl) }

func (pl *setPlan) estimate(probe []byte, esp *obs.Span) (err error) {
	rec := pl.rec
	pl.d, err = setrecon.DiffBoundFromEstimator(rec.coins, probe, rec.view.set)
	esp.SetInt("d", int64(pl.d))
	if err == nil {
		rec.tr.bounds(pl.d, pl.d)
		rec.tr.audit(pl.d, setCellBytes)
	}
	return err
}

func (pl *setPlan) build(s *Server, _ int, coins hashing.Coins) ([][]byte, error) {
	alice, d := pl.rec.view.set, pl.d
	if pl.fl == &flowSetCharPoly {
		// EncodeCharPoly is seed-independent: memoize on (dataset, d) only.
		return s.memo(pl.rec, enccache.Key{Proto: "charpoly", D: d}, func() ([][]byte, error) {
			return [][]byte{setrecon.EncodeCharPoly(alice, d+1)}, nil
		})
	}
	return s.memo(pl.rec, enccache.Key{Proto: "set-iblt", Seed: coins.Master(), D: d}, func() ([][]byte, error) {
		return [][]byte{setrecon.BuildIBLTMsg(coins, alice, d)}, nil
	})
}

// ---- sets of sets ----

// sosPlan is the server-resolved sets-of-sets session shape.
type sosPlan struct {
	rec      *sessionRecord
	fam      *sosFamily
	fl       *flow // nil for multi-round
	p        core.Params
	d        int
	dHat     int // the hello's or the default for d; an unknown-d naive session serves its estimate instead
	replicas int
}

// cellBytes is the audit's cost of one differing child set under this plan
// at difference bound d.
func (pl *sosPlan) cellBytes(d int) int {
	if pl.fam.digest == 0 {
		return core.MultiRoundCellBytes(pl.p)
	}
	return core.CellBytes(pl.fam.digest, pl.p, d)
}

func planSOS(_ *Server, rec *sessionRecord, acc *acceptMsg) (alicePlan, error) {
	h, alice := &rec.h, rec.view.sos
	pl := &rec.sos
	*pl = sosPlan{rec: rec, d: h.D, replicas: h.Replicas, dHat: h.DHat}
	name := h.Protocol
	if name == "" {
		name = "multiround"
		if pl.d > 0 {
			name = "cascade"
		}
	}
	// Until the protocol name resolves the label is a fixed one, so hostile
	// hellos cannot mint unbounded metric series.
	rec.proto = "invalid"
	if pl.fam = sosFamilyOf(name); pl.fam == nil {
		return nil, fmt.Errorf("%w: protocol %q", ErrUnsupported, h.Protocol)
	}
	// The bounds the hello sets must cover the hosted data, because every
	// encoder below sizes its keys, counts and key sums from them; those it
	// leaves to derive cover both parties' data.
	var err error
	bounds, bobNeed := core.Params{S: h.S, H: h.H, U: h.U}, core.Params{S: h.CS, H: h.CH, U: h.CU}
	if pl.p, _, err = bounds.Resolve(alice, bobNeed); err != nil {
		return nil, fmt.Errorf("hosted dataset: %w", err)
	}
	if pl.replicas <= 0 {
		pl.replicas = 3
	}
	if pl.dHat <= 0 {
		pl.dHat = core.DHat(max(pl.d, 1), pl.p.S)
	}
	rec.proto, pl.fl = pl.fam.name, pl.fam.flow(pl.d)
	rec.tr.bounds(pl.d, pl.dHat)
	rec.tr.audit(pl.dHat, pl.cellBytes(pl.d))
	if h.Validate {
		if err := core.Validate(alice, pl.p); err != nil {
			return pl, err
		}
	}
	acc.Protocol, acc.DHat, acc.Replicas = pl.fam.name, pl.dHat, pl.replicas
	acc.S, acc.H, acc.U = pl.p.S, pl.p.H, pl.p.U
	return pl, nil
}

func (pl *sosPlan) detail() string {
	return fmt.Sprintf("d=%d d̂=%d s=%d h=%d", pl.d, pl.dHat, pl.p.S, pl.p.H)
}

func (pl *sosPlan) serve(s *Server) error {
	if pl.fl == nil {
		return pl.serveMultiRound(s)
	}
	return s.serveFlow(pl.rec, pl.fl, pl)
}

// attemptBounds is what attempt k encodes under: the plan's bounds when d is
// known, d = 2^k when doubling, and the probe's d̂ at d = 1 for the single
// shot that follows one.
func (pl *sosPlan) attemptBounds(k int) (d, dHat int) {
	switch {
	case pl.fl.sched == doubling:
		return 1 << k, core.DHat(1<<k, pl.p.S)
	case pl.fl.probe != "":
		return 1, pl.dHat
	}
	return pl.d, pl.dHat
}

// estimate resolves d̂ from Bob's child-difference probe (Theorem 3.4).
func (pl *sosPlan) estimate(probe []byte, esp *obs.Span) error {
	rec := pl.rec
	pl.dHat = core.EstimateChildDiff(probe, rec.coins, rec.view.sos, pl.p)
	esp.SetInt("dhat", int64(pl.dHat))
	return nil
}

// build returns the one-round payload of attempt k for the session's
// snapshot, memoized and — while the snapshot is current — incrementally
// maintained (dataset.oneRoundBody). Each attempt re-records the bounds; the
// surviving values are the attempt the client acked, or the last one tried.
func (pl *sosPlan) build(s *Server, k int, coins hashing.Coins) ([][]byte, error) {
	rec, kind, p := pl.rec, pl.fam.digest, pl.p
	d, dHat := pl.attemptBounds(k)
	// Doubling gives up before its cap once the attempt that just failed, at
	// d/2, had outgrown the instance (core's rule) — or the server's own
	// bound, so endless client retries cannot inflate allocations.
	if pl.fl.sched == doubling && k > 0 && (core.DoublingTooBig(d/2, p) || d/2 > s.maxBound()) {
		return nil, fmt.Errorf("%w: doubling bound %d exceeds instance size", ErrGaveUp, d/2)
	}
	rec.tr.bounds(d, dHat)
	rec.tr.audit(dHat, pl.cellBytes(d))
	key := enccache.Key{Proto: pl.fam.name, Seed: coins.Master(), S: p.S, H: p.H, U: p.U, D: d, DHat: dHat}
	return s.memo(rec, key, func() ([][]byte, error) {
		var body []byte
		var err error
		if s.encCache() == nil {
			// Caching is off altogether: no live digest either.
			body, err = core.AliceMsg(kind, coins, rec.view.sos, p, d, dHat)
		} else {
			body, err = rec.view.ds.oneRoundBody(kind, coins, rec.view, p, d, dHat)
		}
		if err != nil {
			return nil, err
		}
		return [][]byte{body}, nil
	})
}

// serveMultiRound runs Theorem 3.9 (known d, replicated) or 3.10 (unknown d,
// probe first) over the wire, the only genuinely multi-round flow.
func (pl *sosPlan) serveMultiRound(s *Server) error {
	rec := pl.rec
	ep, coins, alice, tr := rec.ep, rec.coins, rec.view.sos, &rec.tr
	attempts := pl.replicas
	dHat := pl.dHat
	if pl.d <= 0 {
		attempts = 1
		if err := rec.recvProbe("childdiff-estimator", pl); err != nil {
			return err
		}
		dHat = pl.dHat
		tr.bounds(pl.d, dHat)
		tr.audit(dHat, pl.cellBytes(pl.d))
	}
	for r := 0; r < attempts; r++ {
		c := coins
		if pl.d > 0 {
			c = coins.Sub("replica", r)
			dHat = core.DHat(pl.d, pl.p.S)
			tr.bounds(pl.d, dHat)
		}
		round1, err := s.memo(rec, enccache.Key{Proto: "mr1", Seed: c.Master(), D: dHat}, func() ([][]byte, error) {
			return [][]byte{core.MRAlice1(c, alice, dHat)}, nil
		})
		if err != nil {
			return err
		}
		if err := ep.SendFrame("hash-iblt", round1[0]); err != nil {
			return err
		}
		got, payload, err := ep.RecvFrame()
		if err != nil {
			return err
		}
		switch got {
		case lblRetry:
			continue
		case lblDone:
			return rec.close(payload)
		case "hash-iblt+estimators":
		default:
			return fmt.Errorf("sosrnet: unexpected frame %q", got)
		}
		run := rec.begin(stageEncode)
		run.sp.SetStr("proto", "mr3")
		round3, _, err := core.MRAlice3(c, alice, pl.p, pl.d, payload)
		run.end(err)
		if err != nil {
			sendErrorFrame(ep, err)
			return err
		}
		if err := ep.SendFrame("pair-payloads", round3); err != nil {
			return err
		}
		got, payload, err = ep.RecvFrame()
		if err != nil {
			return err
		}
		switch got {
		case lblDone:
			return rec.close(payload)
		case lblRetry:
		default:
			return fmt.Errorf("sosrnet: unexpected frame %q", got)
		}
	}
	err := fmt.Errorf("%w: %d attempts", ErrGaveUp, attempts)
	sendErrorFrame(ep, err)
	return err
}

// ---- graph ----

// graphPlan serves one of the three graph schemes. The two §5 schemes
// reconcile the vertex signatures as a sets-of-sets cascade and then the
// labelled edges, and audit against the signature shape; the §4 polynomial
// scheme sends one fixed-size evaluation.
type graphPlan struct {
	noEstimate
	rec  *sessionRecord      // its accept holds the resolved d and, for the neighbourhood scheme, maxSig
	side *graphrecon.NbrSide // neighbourhood scheme: Alice's side encoding
}

func planGraph(s *Server, rec *sessionRecord, acc *acceptMsg) (alicePlan, error) {
	h, ga := &rec.h, rec.view.g
	pl := &rec.graph
	*pl = graphPlan{rec: rec}
	// The scheme — one of graphSchemes, the hello's parser saw to that — is the
	// protocol label.
	rec.proto = "invalid"
	if h.Scheme != "" {
		rec.proto = h.Scheme
	}
	if h.N != ga.N {
		return pl, fmt.Errorf("vertex count mismatch: client %d, dataset %d", h.N, ga.N)
	}
	acc.D = max(h.D, 1)
	rec.tr.bounds(acc.D, acc.D)
	var sigShape core.Params
	var sigD int
	switch h.Scheme {
	case "degree":
		sigShape, sigD = graphrecon.DegreeOrderSigShape(ga.N, graphrecon.DegreeOrderParams{H: h.TopH, D: acc.D})
	case "polynomial":
		// Theorem 4.3's message is PolyMsgSize bytes whatever d: the audit's
		// unit is that message.
		rec.tr.audit(1, graphrecon.PolyMsgSize)
		_, _, err := graphrecon.PolyShape(ga.N, acc.D)
		return pl, err
	case "neighborhood":
		// The side encoding fixes maxSig (part of the accept message and the
		// cache key), so it runs uncached; the expensive IBLT frames behind
		// it are memoized.
		var err error
		if pl.side, err = graphrecon.NeighborhoodEncode(ga, h.M); err != nil {
			return pl, err
		}
		acc.MaxSig = max(pl.side.MaxSig, h.MaxSig, 1)
		p := pl.nbrParams()
		if budget := graphrecon.NeighborhoodBudget(p); budget > s.maxBound() {
			return pl, fmt.Errorf("%w: signature budget %d exceeds server bound %d", ErrUnsupported, budget, s.maxBound())
		}
		sigShape, sigD = graphrecon.NeighborhoodSigShape(ga.N, p, acc.MaxSig)
	default:
		return pl, fmt.Errorf("%w: graph scheme %q", ErrUnsupported, h.Scheme)
	}
	rec.tr.audit(core.DHat(sigD, sigShape.S), core.CellBytes(core.DigestCascade, sigShape, sigD))
	return pl, nil
}

func (pl *graphPlan) nbrParams() graphrecon.NeighborhoodParams {
	return graphrecon.NeighborhoodParams{M: pl.rec.h.M, D: pl.rec.acc.D}
}

func (pl *graphPlan) detail() string        { return fmt.Sprintf("d=%d", pl.rec.h.D) }
func (pl *graphPlan) serve(s *Server) error { return s.serveFlow(pl.rec, pl.rec.h.graphFlow(), pl) }

// build encodes the scheme's frames in one pass and memoizes them together.
func (pl *graphPlan) build(s *Server, _ int, coins hashing.Coins) ([][]byte, error) {
	h, acc, ga := &pl.rec.h, &pl.rec.acc, pl.rec.view.g
	poly := h.graphFlow() == &flowGraphPoly
	key := enccache.Key{Proto: "graph-poly", Seed: coins.Master(), D: acc.D}
	switch {
	case pl.side != nil:
		key.Proto, key.Extra = "graph-nbr", fmt.Sprintf("m=%d,sig=%d", h.M, acc.MaxSig)
	case !poly:
		key.Proto, key.Extra = "graph-degree", fmt.Sprintf("h=%d", h.TopH)
	}
	return s.memo(pl.rec, key, func() ([][]byte, error) {
		var msgs *graphrecon.GraphMsgs
		var err error
		switch {
		case poly:
			var msg []byte
			if msg, err = graphrecon.PolyAlice(coins, ga, acc.D); err != nil {
				return nil, err
			}
			return [][]byte{msg}, nil
		case pl.side != nil:
			msgs, err = graphrecon.NeighborhoodAlice(coins, ga, pl.nbrParams(), pl.side, acc.MaxSig)
		default:
			msgs, err = graphrecon.DegreeOrderAlice(coins, ga, graphrecon.DegreeOrderParams{H: h.TopH, D: acc.D})
		}
		if err != nil {
			return nil, err
		}
		return [][]byte{msgs.Sig, msgs.Edges}, nil
	})
}

// ---- forest ----

// forestPlan serves a forest by verified doubling over the signature budget,
// up to the cap the hello's edit bound and the accept set (forestSchedule).
type forestPlan struct {
	noEstimate
	rec *sessionRecord
}

func planForest(s *Server, rec *sessionRecord, acc *acceptMsg) (alicePlan, error) {
	fi := rec.view.fi
	rec.proto = "forest"
	acc.N, acc.Depth, acc.MaxChild, acc.MaxBudget = fi.N, fi.Depth, fi.MaxChild, min(1<<20, s.maxBound())
	rec.forest = forestPlan{rec: rec}
	return &rec.forest, nil
}

func (pl *forestPlan) detail() string {
	return fmt.Sprintf("d=%d sigma=%d", pl.rec.h.D, pl.rec.h.Sigma)
}
func (pl *forestPlan) serve(s *Server) error {
	return s.serveFlow(pl.rec, &flowForest, pl)
}

func (pl *forestPlan) build(s *Server, k int, coins hashing.Coins) ([][]byte, error) {
	rec, h := pl.rec, &pl.rec.h
	rp, params := forestAttempt(h, &rec.acc, k)
	rec.tr.bounds(max(h.D, 1), rp.Budget)
	rec.tr.audit(core.DHat(rp.Budget, params.S), core.CellBytes(core.DigestCascade, params, rp.Budget))
	// The forest plan — and therefore the payload — depends on the client's
	// side info, which has no dedicated cache-key field; it rides in Extra.
	key := enccache.Key{Proto: "forest", Seed: coins.Master(), D: rp.Budget,
		Extra: fmt.Sprintf("n=%d,dep=%d,mc=%d", h.N, h.Depth, h.MaxChild)}
	return s.memo(rec, key, func() ([][]byte, error) {
		sig, meta, err := forest.AliceMsg(coins, rec.view.f, rp, params)
		if err != nil {
			return nil, err
		}
		return [][]byte{sig, meta}, nil
	})
}
