// Package sosrnet turns the sosr library into a client/server system: a
// Server hosts named datasets (sets, multisets, sets of sets, graphs,
// forests) and serves concurrent one-way reconciliation sessions over TCP; a
// Client reconciles a local replica against a hosted dataset and ends up
// with the server's data, reporting the same protocol Stats the in-process
// simulation reports.
//
// A session is one conversation on a connection: the client opens with a
// "ctl/hello" frame naming the dataset and the negotiated configuration
// (protocol kind, variant, seed, difference bounds, instance shape); the
// server answers "ctl/accept" with the resolved parameters (or "ctl/error");
// then the protocol frames flow — the same labeled payloads, byte for byte,
// that the in-process transport records for the same configuration, because
// both ends call the same exported Alice-step/Bob-step engine functions. The
// client closes with "ctl/done" carrying its view of the session so the
// server can log both sides' accounting.
//
// A connection carries sessions one after the other, never two at once. After
// a cleanly finished session the client keeps the connection and opens its
// next session on it with a new hello; the server, having read the done,
// waits for that hello (holding no session slot while it does) and closes
// the connection when none comes for idleConnTimeout. Nothing on the wire
// marks a connection as reusable: a peer that closes after "done" is simply
// never reused, and anything but a clean finish (a rejected handshake, an
// error frame, a failed decode, a timeout) ends the connection with the
// session. Each session accounts for itself — byte counts, stats, session
// ID, metrics, trace spans and log record are per session, whichever
// connection carried it.
//
// Framing (magic, version, label, length, checksum) lives in internal/wire;
// control frames ("ctl/...") are excluded from protocol Stats and reported
// separately as wire overhead, so NetStats.Protocol.TotalBytes equals the
// in-process Stats.TotalBytes and WireIn+WireOut equals it plus the
// deterministic framing overhead.
package sosrnet

import (
	"encoding/json"
	"errors"
	"fmt"

	"sosr/internal/core"
	"sosr/internal/wire"
)

// Kind names a hosted dataset's type.
type Kind string

// The hosted dataset kinds.
const (
	KindSet        Kind = "set"
	KindMultiset   Kind = "multiset"
	KindSetsOfSets Kind = "sos"
	KindGraph      Kind = "graph"
	KindForest     Kind = "forest"
)

// Control frame labels.
const (
	lblHello  = wire.CtlPrefix + "hello"
	lblAccept = wire.CtlPrefix + "accept"
	lblError  = wire.CtlPrefix + "error"
	lblDone   = wire.CtlPrefix + "done"
	lblRetry  = wire.CtlPrefix + "retry"
)

// protoVersion is the handshake version; bumped on incompatible changes.
// v2: shard coordinates became (canonical shard-identity hash, count, epoch,
// order-invariant fingerprint) — replacing the positional shard index.
// v3: child-IBLT keys inside parent tables lost their per-key shape header
// and carry H-derived count widths, so every nested, cascade, graph and
// forest payload differs from v2's.
const protoVersion = 3

// Package errors.
var (
	// ErrServer wraps an error the server reported over the wire.
	ErrServer = errors.New("sosrnet: server error")
	// ErrUnknownDataset indicates the requested dataset name or kind does
	// not match anything hosted.
	ErrUnknownDataset = errors.New("sosrnet: unknown dataset")
	// ErrUnsupported indicates a configuration the wire protocol does not
	// (yet) serve.
	ErrUnsupported = errors.New("sosrnet: unsupported configuration")
	// ErrGaveUp indicates the session exhausted its retry attempts.
	ErrGaveUp = errors.New("sosrnet: exhausted retry attempts")
	// ErrMisrouted indicates the client's shard coordinates (identity, count,
	// topology fingerprint) do not match the slice this server hosts.
	ErrMisrouted = errors.New("sosrnet: misrouted shard session")
	// ErrStaleEpoch indicates the client's topology epoch differs from the
	// server's while the address structure matches — the client should
	// re-resolve the topology and retry, not treat the shard as broken.
	ErrStaleEpoch = errors.New("sosrnet: stale topology epoch")
	// ErrBusy indicates the server is at its concurrent-session cap; the
	// dataset is fine, retry after a backoff (or on another replica).
	ErrBusy = errors.New("sosrnet: server busy")
)

// Error codes carried in ctl/error frames so clients can classify a
// rejection without string matching.
const (
	codeMisroute   = "misroute"
	codeStaleEpoch = "stale_epoch"
	codeBusy       = "busy"
	codeInstance   = "invalid_instance"
)

// helloMsg opens a session. Zero fields are omitted; kind-specific fields
// are meaningful only for their kind.
type helloMsg struct {
	V       int    `json:"v"`
	Dataset string `json:"dataset"`
	Kind    Kind   `json:"kind"`
	Seed    uint64 `json:"seed"`

	// ShardID/ShardCount identify which slice of a sharded logical dataset
	// the client believes this server hosts (0 count = unsharded). ShardID is
	// the hash of the shard's canonical identity (its sorted replica address
	// list), so reordered-but-identical topologies route correctly while a
	// fan-out client that dials the wrong instance fails loudly at the
	// handshake instead of reconciling a wrong slice. ShardSet is the
	// topology's order-invariant fingerprint: identity and count can match
	// while the overall address structure differs in spelling ("localhost"
	// vs "127.0.0.1" dialing the same servers) and therefore in how it
	// partitions keys; the fingerprint catches that too. ShardEpoch is the
	// topology's monotonic epoch; a mismatch is rejected as stale_epoch,
	// distinguishable from a structural misroute so clients re-resolve
	// instead of failing over.
	ShardID    uint64 `json:"shardid,omitempty"`
	ShardCount int    `json:"shardcnt,omitempty"`
	ShardSet   uint64 `json:"shardset,omitempty"`
	ShardEpoch uint64 `json:"shardepoch,omitempty"`

	// TraceID/SpanID propagate the client's trace context (see internal/obs)
	// so the server's stage spans join the same distributed trace as the
	// client session that opened the connection. Zero means the client did
	// not sample this session; both fields are omitted from the JSON then,
	// so unsampled hellos are byte-identical to pre-trace ones and
	// protoVersion is unchanged (decoders ignore unknown fields).
	TraceID uint64 `json:"traceid,omitempty"`
	SpanID  uint64 `json:"spanid,omitempty"`

	// D is the known difference bound (kind-specific meaning: set/multiset
	// symmetric-difference bound, sets-of-sets total element differences,
	// graph edge edits, forest edge edits). 0 selects the unknown-d variant
	// where one exists.
	D int `json:"d,omitempty"`

	// Set.
	CharPoly bool `json:"charpoly,omitempty"`

	// Sets of sets.
	Protocol string `json:"protocol,omitempty"`
	DHat     int    `json:"dhat,omitempty"`
	Replicas int    `json:"replicas,omitempty"`
	S        int    `json:"s,omitempty"` // explicit shape (0 = derive)
	H        int    `json:"h,omitempty"`
	U        uint64 `json:"u,omitempty"`
	CS       int    `json:"cs,omitempty"` // client-side derived shape lower bounds
	CH       int    `json:"ch,omitempty"`
	Validate bool   `json:"validate,omitempty"`

	// Graph.
	Scheme    string `json:"scheme,omitempty"` // "degree" | "neighborhood"
	TopH      int    `json:"toph,omitempty"`
	M         int    `json:"m,omitempty"`
	N         int    `json:"n,omitempty"`
	SigBudget int    `json:"sigbudget,omitempty"`
	MaxSig    int    `json:"maxsig,omitempty"` // client's largest packed signature

	// Forest (client side-info for forest.Plan).
	Sigma     int `json:"sigma,omitempty"`
	Budget    int `json:"budget,omitempty"`
	MaxBudget int `json:"maxbudget,omitempty"`
	Depth     int `json:"depth,omitempty"`
	MaxChild  int `json:"maxchild,omitempty"`
}

// acceptMsg answers a hello with the server-resolved session parameters.
type acceptMsg struct {
	V    int  `json:"v"`
	Kind Kind `json:"kind"`

	D int `json:"d,omitempty"`

	// Sets of sets.
	Protocol string `json:"protocol,omitempty"`
	DHat     int    `json:"dhat,omitempty"`
	Replicas int    `json:"replicas,omitempty"`
	S        int    `json:"s,omitempty"`
	H        int    `json:"h,omitempty"`
	U        uint64 `json:"u,omitempty"`

	// Graph.
	MaxSig int `json:"maxsig,omitempty"`

	// Forest: the server's side info, combined client-side via forest.Plan.
	N         int `json:"n,omitempty"`
	Depth     int `json:"depth,omitempty"`
	MaxChild  int `json:"maxchild,omitempty"`
	MaxBudget int `json:"maxbudget,omitempty"`
}

// doneMsg closes a session with the client's view of the run.
type doneMsg struct {
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
	Rounds   int    `json:"rounds"`
	Bytes    int    `json:"bytes"`
	Messages int    `json:"messages"`
	Attempts int    `json:"attempts,omitempty"`
}

// errorMsg reports a server-side failure. Code, when present, classifies the
// rejection machine-readably (codeMisroute, codeStaleEpoch).
type errorMsg struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func marshalCtl(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All control messages are plain structs; this cannot fail.
		panic(fmt.Sprintf("sosrnet: control marshal: %v", err))
	}
	return b
}

// sendErrorFrame best-effort reports err to the peer, attaching a machine-
// readable code for the rejection classes clients dispatch on.
func sendErrorFrame(ep *wire.Endpoint, err error) {
	em := errorMsg{Error: err.Error()}
	switch {
	case errors.Is(err, ErrStaleEpoch):
		em.Code = codeStaleEpoch
	case errors.Is(err, ErrMisrouted):
		em.Code = codeMisroute
	case errors.Is(err, ErrBusy):
		em.Code = codeBusy
	case errors.Is(err, core.ErrInvalidInstance):
		em.Code = codeInstance
	}
	_ = ep.SendFrame(lblError, marshalCtl(em))
}

// serverError decodes a ctl/error payload, re-materializing the sentinel for
// coded rejections so errors.Is works across the wire.
func serverError(payload []byte) error {
	var em errorMsg
	if json.Unmarshal(payload, &em) != nil || em.Error == "" {
		return fmt.Errorf("%w: unreadable error frame", ErrServer)
	}
	switch em.Code {
	case codeStaleEpoch:
		return fmt.Errorf("%w: %w: %s", ErrServer, ErrStaleEpoch, em.Error)
	case codeMisroute:
		return fmt.Errorf("%w: %w: %s", ErrServer, ErrMisrouted, em.Error)
	case codeBusy:
		return fmt.Errorf("%w: %w: %s", ErrServer, ErrBusy, em.Error)
	case codeInstance:
		return fmt.Errorf("%w: %w: %s", ErrServer, core.ErrInvalidInstance, em.Error)
	}
	return fmt.Errorf("%w: %s", ErrServer, em.Error)
}

// recvOrServerError reads the next frame, converting a ctl/error frame into
// the server's error and enforcing the expected label otherwise.
func recvOrServerError(ep *wire.Endpoint, label string) ([]byte, error) {
	got, payload, err := ep.RecvFrame()
	if err != nil {
		return nil, err
	}
	if got == lblError {
		return nil, serverError(payload)
	}
	if got != label {
		return nil, fmt.Errorf("sosrnet: expected frame %q, got %q", label, got)
	}
	return payload, nil
}

// tooBigDoubling mirrors core's doubling give-up rule (the bound has
// outgrown any representable difference for the instance shape).
func tooBigDoubling(d, s, h int) bool { return d > 4*s*h }

// maxDoublingAttempts mirrors core's cap.
const maxDoublingAttempts = 31
