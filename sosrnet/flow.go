package sosrnet

import (
	"fmt"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/forest"
	"sosr/internal/hashing"
	"sosr/internal/obs"
)

// Every wire protocol but the multi-round one has the same shape, the one
// exchange the paper gives: shared public coins; when d is unknown, one probe
// from Bob (Theorems 3.4, 3.10); Alice's O(d)-sized labelled message, repeated
// under a schedule — once, the §3.2 replication, or the repeated doubling of
// Corollaries 3.6 and 3.8 — and Bob applies it. A flow is that shape's fixed
// part, a row both ends read; serveFlow runs a row for Alice and runFlow for
// Bob, each calling into the session's plan for the arithmetic. The
// multi-round protocol (Theorems 3.9/3.10) is not a row: Alice's third message
// depends on Bob's second, so it keeps a loop pair of its own.

// schedule is how a flow repeats Alice's message.
type schedule uint8

const (
	// once: one message, then the client's ctl/done.
	once schedule = iota
	// replicated: up to `replicas` messages under fresh coins; the client asks
	// for the next with ctl/retry and ends with ctl/done.
	replicated
	// doubling: attempt k runs at a bound that doubles with k, under fresh
	// coins; the client answers each with the protocol's own 1-byte "ack" or
	// "retry" — the messages the in-process run records — and closes with
	// ctl/done after the ack.
	doubling
)

// flow is one row: what both ends of a one-round session agree on before the
// first payload byte.
type flow struct {
	labels [2]string // Alice's frames per attempt; a one-frame flow leaves the second empty
	probe  string    // Bob's opening probe frame when d is unknown ("" = none)
	sched  schedule
	coins  string // derives attempt k's coins from the session's ("" = use those)
}

// The rows. Sets and multisets (a multiset travels as its packed set):
var (
	flowSetIBLT     = flow{labels: [2]string{"iblt"}}
	flowSetCharPoly = flow{labels: [2]string{"charpoly"}}
	flowSetUnknownD = flow{labels: [2]string{"iblt"}, probe: "estimator"}
)

// setFlow is the row a set or multiset hello selects.
func (h *helloMsg) setFlow() *flow {
	switch {
	case h.CharPoly:
		return &flowSetCharPoly
	case h.D <= 0:
		return &flowSetUnknownD
	}
	return &flowSetIBLT
}

// Graphs (both §5 schemes send a signature cascade and an edge table; the §4
// polynomial scheme one 24-byte evaluation) and forests (forest.Schedule:
// Corollary 3.8's doubling applied to the signature budget, capped at Theorem
// 6.1's budget when the hello bounds the edits):
var (
	flowGraph     = flow{labels: [2]string{"cascade-iblts", "edge-iblt"}}
	flowGraphPoly = flow{labels: [2]string{"poly-recon"}}
	flowForest    = flow{labels: [2]string{"cascade-iblts", "forest-meta"}, sched: doubling, coins: "forest-attempt"}
)

// graphFlow is the row a graph hello selects.
func (h *helloMsg) graphFlow() *flow {
	if h.Scheme == "polynomial" {
		return &flowGraphPoly
	}
	return &flowGraph
}

// forestSchedule is what a forest session plans from, read off the hello
// (Bob's side info and edit bound) and the accept (Alice's side info and the
// server's budget cap) by both ends alike: both side infos, and the budget
// schedule whose attempts the session runs.
func forestSchedule(h *helloMsg, acc *acceptMsg) (alice, bob forest.SideInfo, s forest.Schedule) {
	alice = forest.SideInfo{N: acc.N, Depth: acc.Depth, MaxChild: acc.MaxChild}
	bob = forest.SideInfo{N: h.N, Depth: h.Depth, MaxChild: h.MaxChild}
	return alice, bob, forest.NewSchedule(alice, bob, forest.ReconParams{Sigma: h.Sigma, D: h.D}, acc.MaxBudget)
}

// forestAttempt is the plan of attempt k of a forest session.
func forestAttempt(h *helloMsg, acc *acceptMsg, k int) (forest.ReconParams, core.Params) {
	alice, bob, s := forestSchedule(h, acc)
	return forest.Plan(alice, bob, s.Ask(k))
}

// sosFamily is one sets-of-sets protocol family: its name on the wire, in
// cache keys and in metrics, its public constant, its one-round digest, and
// the rows it runs with d known and unknown. Multi-round has no digest and no
// rows.
type sosFamily struct {
	name           string
	proto          sosr.Protocol
	digest         core.DigestKind
	known, unknown *flow
}

var sosFamilies = []sosFamily{
	{"naive", sosr.ProtocolNaive, core.DigestNaive,
		&flow{labels: [2]string{"naive-iblt"}, sched: replicated, coins: "replica"},
		// Theorem 3.4: probe, then a single Theorem 3.3 shot.
		&flow{labels: [2]string{"naive-iblt"}, probe: "childdiff-estimator"}},
	{"nested", sosr.ProtocolNested, core.DigestNested,
		&flow{labels: [2]string{"nested-iblt"}, sched: replicated, coins: "replica"},
		&flow{labels: [2]string{"nested-iblt"}, sched: doubling, coins: "doubling-attempt"}},
	{"cascade", sosr.ProtocolCascade, core.DigestCascade,
		&flow{labels: [2]string{"cascade-iblts"}, sched: replicated, coins: "replica"},
		&flow{labels: [2]string{"cascade-iblts"}, sched: doubling, coins: "doubling-attempt"}},
	{"multiround", sosr.ProtocolMultiRound, 0, nil, nil},
}

// sosFamilyOf resolves a protocol name, nil when there is no such family.
func sosFamilyOf(name string) *sosFamily {
	for i := range sosFamilies {
		if sosFamilies[i].name == name {
			return &sosFamilies[i]
		}
	}
	return nil
}

// flow is the family's row for a known (d > 0) or unknown difference bound.
func (f *sosFamily) flow(d int) *flow {
	if d > 0 {
		return f.known
	}
	return f.unknown
}

// limit is how many attempts the row allows under the accepted plan: the
// stopping rule of its schedule, which both ends read off the same hello and
// accept — the replicas of §3.2, the forest schedule's attempt at its cap, and
// core's rule for a sets-of-sets doubling: the attempt whose bound outgrew the
// accepted shape is the last. Bob holds to it too, so a server that keeps
// failing cannot walk him to bounds no instance of the shape needs.
func (fl *flow) limit(h *helloMsg, acc *acceptMsg) int {
	switch {
	case fl.sched == replicated:
		return acc.Replicas
	case fl == &flowForest:
		_, _, s := forestSchedule(h, acc)
		return s.Attempts()
	case fl.sched == doubling:
		p := core.Params{S: acc.S, H: acc.H}
		k := 1
		for k < core.MaxDoublingAttempts && !core.DoublingTooBig(1<<(k-1), p) {
			k++
		}
		return k
	}
	return 1
}

// attemptCoins derives attempt k's coins.
func (fl *flow) attemptCoins(coins hashing.Coins, k int) hashing.Coins {
	if fl.coins == "" {
		return coins
	}
	return coins.Sub(fl.coins, k)
}

// alicePlan is a served session's resolved plan: what its kind's table entry
// made of the hello.
type alicePlan interface {
	// detail renders the plan for the session's log record.
	detail() string
	// serve runs the session's protocol frames after the accept, leaving the
	// client's closing report in the session record.
	serve(s *Server) error
}

// aliceRound is what serveFlow asks of a one-round plan.
type aliceRound interface {
	// estimate resolves the session's bound from Bob's probe.
	estimate(probe []byte, esp *obs.Span) error
	// build returns Alice's frames for attempt k, memoised (Server.memo), and
	// records the attempt's bounds for the audit.
	build(s *Server, k int, coins hashing.Coins) ([][]byte, error)
}

// noEstimate is embedded by the plans whose flows never open with a probe.
type noEstimate struct{}

func (noEstimate) estimate([]byte, *obs.Span) error { return nil }

// recvProbe reads Bob's opening probe and lets the plan resolve the session's
// bound from it, under an "estimate" span. The stage opens once the probe has
// arrived: the wait for it is the client's time, not the server's.
func (rec *sessionRecord) recvProbe(label string, a aliceRound) error {
	probe, err := rec.ep.RecvExpect(label)
	if err != nil {
		return err
	}
	run := rec.begin(stageEstimate)
	if err = a.estimate(probe, run.sp); err != nil {
		sendErrorFrame(rec.ep, err)
	}
	run.end(err)
	return err
}

// serveFlow is Alice's side of every one-round flow.
func (s *Server) serveFlow(rec *sessionRecord, fl *flow, a aliceRound) error {
	ep := rec.ep
	if fl.probe != "" {
		if err := rec.recvProbe(fl.probe, a); err != nil {
			return err
		}
	}
	for k := 0; ; k++ {
		if k == fl.limit(&rec.h, &rec.acc) {
			err := fmt.Errorf("%w: %d attempts", ErrGaveUp, k)
			sendErrorFrame(ep, err)
			return err
		}
		frames, err := a.build(s, k, fl.attemptCoins(rec.coins, k))
		if err != nil {
			sendErrorFrame(ep, err)
			return err
		}
		for i, frame := range frames {
			if err := ep.SendFrame(fl.labels[i], frame); err != nil {
				return err
			}
		}
		got, payload, err := ep.RecvFrame()
		if err != nil {
			return err
		}
		switch {
		case got == lblDone && fl.sched != doubling:
			return rec.close(payload)
		case got == "ack" && fl.sched == doubling:
			if payload, err = ep.RecvExpect(lblDone); err != nil {
				return err
			}
			return rec.close(payload)
		case got == lblRetry && fl.sched == replicated, got == "retry" && fl.sched == doubling:
		default:
			return fmt.Errorf("sosrnet: unexpected frame %q", got)
		}
	}
}

// bobRound is what runFlow asks of the client's side of a one-round session.
type bobRound interface {
	// probe builds Bob's opening probe (flows that have one).
	probe(coins hashing.Coins) []byte
	// apply is Bob's step for attempt k: it reconciles the local replica
	// against Alice's frames under a decode span and keeps the result. An
	// error is a failed attempt, the schedule's to retry.
	apply(k int, coins hashing.Coins, frames [2][]byte) error
}

// sendProbe builds Bob's opening probe under an "estimate" span and sends it.
func (cs *clientSession) sendProbe(label string, b bobRound) error {
	esp := cs.sp.Child("estimate")
	probe := b.probe(cs.coins)
	esp.Finish()
	return cs.ep.SendFrame(label, probe)
}

// runFlow is Bob's side of every one-round flow. It returns the number of
// attempts a success took, and leaves the closing ctl/done of a success to
// the caller (clientSession.done).
func (cs *clientSession) runFlow(fl *flow, b bobRound) (attempts int, err error) {
	ep, limit := cs.ep, fl.limit(&cs.h, &cs.acc)
	if fl.probe != "" {
		if err := cs.sendProbe(fl.probe, b); err != nil {
			return 0, err
		}
	}
	var lastErr error
	for k := 0; k < limit; k++ {
		var frames [2][]byte
		for i, label := range fl.labels {
			if label == "" {
				break
			}
			if frames[i], err = recvOrServerError(ep, label); err != nil {
				// Connection failures and server errors end the session;
				// only a failed apply drives the schedule.
				if lastErr != nil {
					err = fmt.Errorf("%w (last attempt: %w)", err, lastErr)
				}
				return 0, err
			}
		}
		if lastErr = b.apply(k, fl.attemptCoins(cs.coins, k), frames); lastErr == nil {
			if fl.sched == doubling {
				if err := ep.SendFrame("ack", []byte{1}); err != nil {
					return 0, err
				}
			}
			return k + 1, nil
		}
		if err := cs.retry(fl.sched, k, limit, lastErr); err != nil {
			return 0, err
		}
	}
	// A doubling schedule ran out; its last "retry" has told the server.
	return 0, fmt.Errorf("%w: %w", ErrGaveUp, lastErr)
}

// retry follows attempt k of limit failing with cause. A doubling schedule
// answers every failure with the protocol's "retry"; the others ask for the
// next attempt with ctl/retry while one is left. After the last one the
// session is over: the server is told with ctl/done{ok:false} and the
// session's error returned — the cause itself for a single shot, ErrGaveUp
// for a replicated one.
func (cs *clientSession) retry(sched schedule, k, limit int, cause error) error {
	switch {
	case sched == doubling:
		return cs.ep.SendFrame("retry", []byte{0})
	case k+1 < limit:
		return cs.ep.SendFrame(lblRetry, nil)
	case sched == replicated:
		cause = fmt.Errorf("%w: %w", ErrGaveUp, cause)
	}
	cs.cc.sendDone(false, cause, limit)
	return cause
}
