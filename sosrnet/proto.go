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

// errorCodes classifies the rejections clients dispatch on: the code a
// ctl/error frame carries for each sentinel, so errors.Is works across the
// wire without string matching.
var errorCodes = []struct {
	code string
	err  error
}{
	{"stale_epoch", ErrStaleEpoch},
	{"misroute", ErrMisrouted},
	{"busy", ErrBusy},
	{"invalid_instance", core.ErrInvalidInstance},
}

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
// rejection machine-readably (see errorCodes).
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

// sendErrorFrame best-effort reports err to the peer, with its code when it
// is one of the classified rejections.
func sendErrorFrame(ep *wire.Endpoint, err error) {
	em := errorMsg{Error: err.Error()}
	for _, ec := range errorCodes {
		if errors.Is(err, ec.err) {
			em.Code = ec.code
			break
		}
	}
	_ = ep.SendFrame(lblError, marshalCtl(em))
}

// serverError decodes a ctl/error payload, re-materializing the sentinel of a
// coded rejection.
func serverError(payload []byte) error {
	var em errorMsg
	if json.Unmarshal(payload, &em) != nil || em.Error == "" {
		return fmt.Errorf("%w: unreadable error frame", ErrServer)
	}
	for _, ec := range errorCodes {
		if em.Code == ec.code {
			return fmt.Errorf("%w: %w: %s", ErrServer, ec.err, em.Error)
		}
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

// maxHelloReplicas caps the replication factor either party may name (each
// replica is one server-built payload and one client decode).
const maxHelloReplicas = 64

// boundedField is one peer-supplied number that sizes an allocation.
type boundedField struct {
	name string
	v    int
}

// checkBounded rejects a control message whose numeric parameters are negative
// or exceed bound, before any of them can size an allocation.
func checkBounded(msg string, bound, replicas int, fields []boundedField) error {
	for _, f := range fields {
		if f.v < 0 || f.v > bound {
			return fmt.Errorf("%w: %s field %s=%d outside [0, %d]", ErrUnsupported, msg, f.name, f.v, bound)
		}
	}
	if replicas < 0 || replicas > maxHelloReplicas {
		return fmt.Errorf("%w: replicas=%d outside [0, %d]", ErrUnsupported, replicas, maxHelloReplicas)
	}
	return nil
}

// checkHello is the server's entrance check on a client's hello.
func checkHello(h *helloMsg, bound int) error {
	err := checkBounded("hello", bound, h.Replicas, []boundedField{
		{"d", h.D}, {"dhat", h.DHat}, {"s", h.S}, {"h", h.H},
		{"cs", h.CS}, {"ch", h.CH}, {"toph", h.TopH}, {"m", h.M},
		{"n", h.N}, {"sigbudget", h.SigBudget}, {"maxsig", h.MaxSig},
		{"sigma", h.Sigma}, {"budget", h.Budget}, {"maxbudget", h.MaxBudget},
		{"depth", h.Depth}, {"maxchild", h.MaxChild},
		{"shardcnt", h.ShardCount},
	})
	if err == nil && h.ShardCount == 0 && (h.ShardID != 0 || h.ShardEpoch != 0) {
		err = fmt.Errorf("%w: shard identity without a shard count", ErrUnsupported)
	}
	return err
}

// checkAccept is the client's entrance check on the server's answer to h, the
// mirror of checkHello: the accept sizes Bob's sketches and plans, so it must
// speak this version about this kind, return unchanged every parameter the
// hello pinned, and keep what the server resolved within the bound a default
// server applies to a client's own fields.
func checkAccept(h *helloMsg, acc *acceptMsg) error {
	if acc.V != protoVersion || acc.Kind != h.Kind {
		return fmt.Errorf("%w: accept speaks version %d about kind %q (want %d, %q)", ErrUnsupported, acc.V, acc.Kind, protoVersion, h.Kind)
	}
	for _, f := range []struct {
		name      string
		sent, got uint64
	}{
		{"d", uint64(h.D), uint64(acc.D)}, {"dhat", uint64(h.DHat), uint64(acc.DHat)},
		{"replicas", uint64(h.Replicas), uint64(acc.Replicas)},
		{"s", uint64(h.S), uint64(acc.S)}, {"h", uint64(h.H), uint64(acc.H)}, {"u", h.U, acc.U},
	} {
		if f.sent != 0 && f.got != f.sent {
			return fmt.Errorf("%w: accept changed %s from %d to %d", ErrUnsupported, f.name, f.sent, f.got)
		}
	}
	return checkBounded("accept", DefaultMaxBound, acc.Replicas, []boundedField{
		{"d", acc.D}, {"dhat", acc.DHat}, {"s", acc.S}, {"h", acc.H},
		{"maxsig", acc.MaxSig}, {"n", acc.N}, {"depth", acc.Depth},
		{"maxchild", acc.MaxChild}, {"maxbudget", acc.MaxBudget},
	})
}
