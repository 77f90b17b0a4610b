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
// A connection carries sessions one after the other, never two at once, and
// within a session the ends take turns: the paper counts rounds, and no flow
// has one end writing while the other does (the one exchange that does is the
// busy refusal, which a server at its session cap writes before it reads the
// hello). So each end of a connection is one goroutine, which reads when it
// needs the peer's next frame; nothing reads ahead of it or beside it. After a
// cleanly finished session the client keeps the connection and opens its next
// session on it with a new hello; the server, having read the done, waits for
// that hello (holding no session slot while it does) and closes the connection
// when none comes for idleConnTimeout — which the client, reading nothing
// between sessions, finds out when its next hello fails, and answers with one
// replay on a fresh connection. Nothing on the wire marks a connection as
// reusable: a peer that closes after "done" is simply never reused, and
// anything but a clean finish (a rejected handshake, an error frame, a failed
// decode, a timeout) ends the connection with the session. Each session
// accounts for itself — byte counts, stats, session ID, metrics, trace spans
// and log record are per session, whichever connection carried it.
//
// Framing (magic, version, label, length, checksum) lives in internal/wire;
// control frames ("ctl/...") are excluded from protocol Stats and reported
// separately as wire overhead, so NetStats.Protocol.TotalBytes equals the
// in-process Stats.TotalBytes and WireIn+WireOut equals it plus the
// deterministic framing overhead.
package sosrnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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
// v2: shard coordinates became (shard-identity hash, count, epoch,
// fingerprint) — replacing the bare shard index.
// v3: child-IBLT keys inside parent tables lost their per-key shape header
// and carry H-derived count widths, so every nested, cascade, graph and
// forest payload differs from v2's.
// v4: the signature collections of forests and of the degree-neighbourhood
// graph scheme reconcile under their true shape (h = the largest child set
// either party holds, where v3 added twice the difference budget), so both
// signature payloads differ from v3's; and the control frames (hello, accept,
// done, error) are a fixed binary encoding where they were JSON.
// v5: a shard is its position — ownership, the shard's coins and the hello's
// shardid and shardset derive from (position, shard count), no longer from
// the replica addresses — so every sharded session partitions and hashes
// differently from v4's; unsharded payloads are unchanged.
// v6: an IBLT cell carries only what its plan needs. Every checksum is 32
// bits; a one-round parent table's counts are as wide as s needs and a child
// IBLT's key sums as wide as u needs; a one-round message is its tables'
// cells and the parent hash, with no table header, length frame, level count
// or T* flag. Every payload that carries a table differs from v5's, and the
// control frames changed only in the version. No coin moved, nor a cell index
// of a table keyed by elements, hashes or whole child sets; a parent table
// keyed by child-IBLT encodings hashes the narrower encodings to new cells.
// v7: an unset u derives from both parties' data, as s and h do — the
// smallest 2^(8·b) above the largest element either holds, carried by the
// hello's new cu beside cs and ch — and a listed child set (the naive
// protocol's keys, cascade's T*) is a length as wide as h needs and elements
// as wide as u needs. The hello's tags run from 1 without gaps, so every
// hello differs from v6's. No coin moved, nor a child IBLT's cell index:
// payloads at a declared u change only where a child set is listed.
// v8: a parent table keys each child set by the narrower of its child IBLT
// and its whole encoding, and a cascade ends at its first whole-set level,
// so T* is gone. Where no child key is narrower, nested and cascade send
// Theorem 3.3's one table, in their first level's cells and under its seed.
// Every nested, cascade, graph-signature and forest-signature payload with a
// level that changed key differs from v7's; naive payloads and the control
// frames changed only in the version.
// v9: a forest session is verified doubling over the signature budget whatever
// the hello says: attempt k plans for min(16·2^k, cap) under the coins
// forest-attempt/k and Bob answers each with "ack" or "retry". An edit bound
// sets the cap to Theorem 6.1's budget 4·d·(σ+2)+16 (never above the
// accept's maxbudget), where v8 sent one message at that budget under the
// session's own coins. No other payload or control frame changed but in the
// version.
// v10: every IBLT hashes a key once under its seed and derives the key's k
// cell indexes and its checksum from that one hash, where v9 ran k + 1
// independently seeded hashes. No payload changed size, but every cell
// position in every table did.
const protoVersion = 10

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
	// ErrMisrouted indicates the client's shard coordinates (position
	// identity, count, topology fingerprint) do not match the slice this
	// server hosts — another position, another count, or the same addresses
	// listed in another shard order.
	ErrMisrouted = errors.New("sosrnet: misrouted shard session")
	// ErrStaleEpoch indicates the client's topology epoch differs from the
	// server's — the client should re-resolve the topology and retry, not
	// treat the shard as broken.
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

// helloMsg opens a session. Kind-specific fields are meaningful only for
// their kind.
type helloMsg struct {
	V       int
	Kind    Kind
	Dataset string
	Seed    uint64

	// ShardID/ShardCount identify which slice of a sharded logical dataset
	// the client believes this server hosts (0 count = unsharded). A shard is
	// its position: ShardID hashes the position's name, so a fan-out client
	// that dials the wrong instance — or holds the shard list in another
	// order — fails loudly at the handshake instead of reconciling a wrong
	// slice, while a respelled or replaced replica address changes nothing.
	// ShardSet is the topology fingerprint, which the count already implies.
	// ShardEpoch is the topology's monotonic epoch; a mismatch is rejected as
	// stale_epoch, distinguishable from a structural misroute so clients
	// re-resolve instead of failing over.
	ShardID    uint64
	ShardCount int
	ShardSet   uint64
	ShardEpoch uint64

	// TraceID/SpanID propagate the client's trace context (see internal/obs)
	// so the server's stage spans join the same distributed trace as the
	// client session that opened the connection. Zero means the client did
	// not sample this session; like every zero field they are then left off
	// the wire, so an unsampled hello is byte-identical to an untraced one.
	TraceID uint64
	SpanID  uint64

	// D is the known difference bound (kind-specific meaning: set/multiset
	// symmetric-difference bound, sets-of-sets total element differences,
	// graph edge edits, forest edge edits). 0 selects the unknown-d variant
	// where one exists.
	D int

	// Set.
	CharPoly bool

	// Sets of sets.
	Protocol string // a sosFamilies name; "" = the default for d
	DHat     int
	Replicas int
	S        int // explicit shape (0 = derive)
	H        int
	U        uint64
	CS       int // client-side derived shape lower bounds
	CH       int
	CU       uint64 // sent only when U is left to derive
	Validate bool

	// Graph.
	Scheme string // a graphSchemes name
	TopH   int
	M      int
	N      int
	MaxSig int // client's largest packed signature

	// Forest (client side-info for forest.Plan).
	Sigma    int
	Depth    int
	MaxChild int
}

// acceptMsg answers a hello with the server-resolved session parameters.
type acceptMsg struct {
	V    int
	Kind Kind

	D int

	// Sets of sets.
	Protocol string
	DHat     int
	Replicas int
	S        int
	H        int
	U        uint64

	// Graph.
	MaxSig int

	// Forest: the server's side info, combined client-side via forest.Plan.
	N         int
	Depth     int
	MaxChild  int
	MaxBudget int
}

// doneMsg closes a session with the client's view of the run.
type doneMsg struct {
	OK       bool
	Error    string
	Rounds   int
	Bytes    int
	Messages int
	Attempts int
}

// errorMsg reports a server-side failure. Code, when present, classifies the
// rejection machine-readably (see errorCodes).
type errorMsg struct {
	Error string
	Code  string
}

// The control frames' wire form (since v4). A message is its
// non-zero fields in ascending tag order, each a tag byte and a uvarint: a
// number's value, 1 for a set flag, the code of an enumerated name (its
// position, from 1, in the table that defines the names), or a string's
// length with the bytes after it. Zero fields are left out and nothing else
// is allowed in — parseCtl refuses an unknown, repeated or out-of-order tag,
// a varint longer than it need be, an explicit zero, bytes after the last
// field — so a message has exactly one encoding, and what parses re-encodes
// to the bytes it came from.
//
// Each message is declared once, as a table of its fields. The encoder, the
// parser and the entrance checks on a peer's message (which numbers size an
// allocation and must be bounded, which the accept must return as the hello
// set them) all read that table.

// ctlField is one field of control message M.
type ctlField[M any] struct {
	tag  byte
	name string // in refusals
	// at returns the field's address in m: *int, *uint64, *bool or *string.
	at func(m *M) any
	// enum lists the names a *string field may hold.
	enum []string
	// max bounds an *int field that sizes an allocation: perSession, or a cap
	// of the field's own. 0 for a field that sizes nothing.
	max int
	// pin, in the accept's table, is the hello field this one answers: when
	// the hello set it, the accept must return it unchanged.
	pin func(h *helloMsg) any
}

// perSession is the max of a field held to the bound of the end that checks
// it: Server.MaxBound for a hello, DefaultMaxBound for an accept.
const perSession = -1

// maxHelloReplicas caps the replication factor either party may name (each
// replica is one server-built payload and one client decode).
const maxHelloReplicas = 64

// The names the enumerated fields carry, in code order: the kind table's, the
// sets-of-sets families', the graph schemes'.
var (
	kindNames    = namesOf(kinds, func(k *kindEntry) string { return string(k.kind) })
	familyNames  = namesOf(sosFamilies, func(f sosFamily) string { return f.name })
	graphSchemes = []string{"degree", "neighborhood", "polynomial"}
)

func namesOf[T any](table []T, name func(T) string) []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = name(e)
	}
	return names
}

var helloFields = []ctlField[helloMsg]{
	{tag: 1, name: "v", at: func(h *helloMsg) any { return &h.V }},
	{tag: 2, name: "kind", at: func(h *helloMsg) any { return (*string)(&h.Kind) }, enum: kindNames},
	{tag: 3, name: "dataset", at: func(h *helloMsg) any { return &h.Dataset }},
	{tag: 4, name: "seed", at: func(h *helloMsg) any { return &h.Seed }},
	{tag: 5, name: "shardid", at: func(h *helloMsg) any { return &h.ShardID }},
	{tag: 6, name: "shardcnt", at: func(h *helloMsg) any { return &h.ShardCount }, max: perSession},
	{tag: 7, name: "shardset", at: func(h *helloMsg) any { return &h.ShardSet }},
	{tag: 8, name: "shardepoch", at: func(h *helloMsg) any { return &h.ShardEpoch }},
	{tag: 9, name: "traceid", at: func(h *helloMsg) any { return &h.TraceID }},
	{tag: 10, name: "spanid", at: func(h *helloMsg) any { return &h.SpanID }},
	{tag: 11, name: "d", at: func(h *helloMsg) any { return &h.D }, max: perSession},
	{tag: 12, name: "charpoly", at: func(h *helloMsg) any { return &h.CharPoly }},
	{tag: 13, name: "protocol", at: func(h *helloMsg) any { return &h.Protocol }, enum: familyNames},
	{tag: 14, name: "dhat", at: func(h *helloMsg) any { return &h.DHat }, max: perSession},
	{tag: 15, name: "replicas", at: func(h *helloMsg) any { return &h.Replicas }, max: maxHelloReplicas},
	{tag: 16, name: "s", at: func(h *helloMsg) any { return &h.S }, max: perSession},
	{tag: 17, name: "h", at: func(h *helloMsg) any { return &h.H }, max: perSession},
	{tag: 18, name: "u", at: func(h *helloMsg) any { return &h.U }},
	{tag: 19, name: "cs", at: func(h *helloMsg) any { return &h.CS }, max: perSession},
	{tag: 20, name: "ch", at: func(h *helloMsg) any { return &h.CH }, max: perSession},
	{tag: 21, name: "cu", at: func(h *helloMsg) any { return &h.CU }},
	{tag: 22, name: "validate", at: func(h *helloMsg) any { return &h.Validate }},
	{tag: 23, name: "scheme", at: func(h *helloMsg) any { return &h.Scheme }, enum: graphSchemes},
	{tag: 24, name: "toph", at: func(h *helloMsg) any { return &h.TopH }, max: perSession},
	{tag: 25, name: "m", at: func(h *helloMsg) any { return &h.M }, max: perSession},
	{tag: 26, name: "n", at: func(h *helloMsg) any { return &h.N }, max: perSession},
	{tag: 27, name: "maxsig", at: func(h *helloMsg) any { return &h.MaxSig }, max: perSession},
	{tag: 28, name: "sigma", at: func(h *helloMsg) any { return &h.Sigma }, max: perSession},
	{tag: 29, name: "depth", at: func(h *helloMsg) any { return &h.Depth }, max: perSession},
	{tag: 30, name: "maxchild", at: func(h *helloMsg) any { return &h.MaxChild }, max: perSession},
}

var acceptFields = []ctlField[acceptMsg]{
	{tag: 1, name: "v", at: func(a *acceptMsg) any { return &a.V }},
	{tag: 2, name: "kind", at: func(a *acceptMsg) any { return (*string)(&a.Kind) }, enum: kindNames},
	{tag: 3, name: "d", at: func(a *acceptMsg) any { return &a.D }, max: perSession, pin: func(h *helloMsg) any { return &h.D }},
	{tag: 4, name: "protocol", at: func(a *acceptMsg) any { return &a.Protocol }, enum: familyNames},
	{tag: 5, name: "dhat", at: func(a *acceptMsg) any { return &a.DHat }, max: perSession, pin: func(h *helloMsg) any { return &h.DHat }},
	{tag: 6, name: "replicas", at: func(a *acceptMsg) any { return &a.Replicas }, max: maxHelloReplicas, pin: func(h *helloMsg) any { return &h.Replicas }},
	{tag: 7, name: "s", at: func(a *acceptMsg) any { return &a.S }, max: perSession, pin: func(h *helloMsg) any { return &h.S }},
	{tag: 8, name: "h", at: func(a *acceptMsg) any { return &a.H }, max: perSession, pin: func(h *helloMsg) any { return &h.H }},
	{tag: 9, name: "u", at: func(a *acceptMsg) any { return &a.U }, pin: func(h *helloMsg) any { return &h.U }},
	{tag: 10, name: "maxsig", at: func(a *acceptMsg) any { return &a.MaxSig }, max: perSession},
	{tag: 11, name: "n", at: func(a *acceptMsg) any { return &a.N }, max: perSession},
	{tag: 12, name: "depth", at: func(a *acceptMsg) any { return &a.Depth }, max: perSession},
	{tag: 13, name: "maxchild", at: func(a *acceptMsg) any { return &a.MaxChild }, max: perSession},
	{tag: 14, name: "maxbudget", at: func(a *acceptMsg) any { return &a.MaxBudget }, max: perSession},
}

var doneFields = []ctlField[doneMsg]{
	{tag: 1, name: "ok", at: func(d *doneMsg) any { return &d.OK }},
	{tag: 2, name: "error", at: func(d *doneMsg) any { return &d.Error }},
	{tag: 3, name: "rounds", at: func(d *doneMsg) any { return &d.Rounds }},
	{tag: 4, name: "bytes", at: func(d *doneMsg) any { return &d.Bytes }},
	{tag: 5, name: "messages", at: func(d *doneMsg) any { return &d.Messages }},
	{tag: 6, name: "attempts", at: func(d *doneMsg) any { return &d.Attempts }},
}

var errorFields = []ctlField[errorMsg]{
	{tag: 1, name: "error", at: func(e *errorMsg) any { return &e.Error }},
	{tag: 2, name: "code", at: func(e *errorMsg) any { return &e.Code }},
}

// appendCtl appends m's encoding to dst. Calling through the table makes m
// escape: a message that is encoded per session lives in its connection's or
// its session's record, not on the stack.
func appendCtl[M any](dst []byte, fields []ctlField[M], m *M) []byte {
	for i := range fields {
		f := &fields[i]
		var v uint64
		var text string
		switch p := f.at(m).(type) {
		case *int:
			v = uint64(*p)
		case *uint64:
			v = *p
		case *bool:
			if *p {
				v = 1
			}
		case *string:
			switch {
			case f.enum == nil:
				text, v = *p, uint64(len(*p))
			case *p != "":
				if v = uint64(slices.Index(f.enum, *p) + 1); v == 0 {
					// Both ends resolve names through the tables before they
					// put one in a message.
					panic(fmt.Sprintf("sosrnet: control field %s: no code for %q", f.name, *p))
				}
			}
		}
		if v != 0 {
			dst = append(binary.AppendUvarint(append(dst, f.tag), v), text...)
		}
	}
	return dst
}

// parseCtl decodes b into m, every field of which it sets (the absent ones to
// zero), and refuses any b that appendCtl would not have produced. A string
// field that already holds the bytes on the wire keeps its string, so
// re-parsing a repeated message into the same record allocates nothing.
func parseCtl[M any](fields []ctlField[M], b []byte, m *M) error {
	for i := range fields {
		f := &fields[i]
		var v uint64
		if len(b) > 0 && b[0] == f.tag {
			var n int
			if v, n = binary.Uvarint(b[1:]); n <= 0 || v == 0 || n > 1 && b[n] == 0 {
				return fmt.Errorf("field %s: not a canonical non-zero varint", f.name)
			}
			b = b[1+n:]
		}
		switch p := f.at(m).(type) {
		case *int:
			*p = int(v)
		case *uint64:
			*p = v
		case *bool:
			if v > 1 {
				return fmt.Errorf("field %s: flag %d", f.name, v)
			}
			*p = v == 1
		case *string:
			switch {
			case f.enum != nil:
				if v > uint64(len(f.enum)) {
					return fmt.Errorf("field %s: unknown code %d", f.name, v)
				}
				if *p = ""; v > 0 {
					*p = f.enum[v-1]
				}
			case v > uint64(len(b)):
				return fmt.Errorf("field %s: %d bytes announced, %d left", f.name, v, len(b))
			default:
				if *p != string(b[:v]) { // the comparison does not allocate
					*p = string(b[:v])
				}
				b = b[v:]
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("unknown, repeated or out-of-order tag %d", b[0])
	}
	return nil
}

// fieldNum reads a numeric field through the address its table entry gave.
func fieldNum(p any) uint64 {
	if p, ok := p.(*int); ok {
		return uint64(*p)
	}
	return *p.(*uint64)
}

// checkBounded rejects a control message in which a number that sizes an
// allocation is negative or exceeds its bound, before any of them is used.
func checkBounded[M any](msg string, fields []ctlField[M], m *M, bound int) error {
	for i := range fields {
		f := &fields[i]
		limit := f.max
		if limit == perSession {
			limit = bound
		}
		if limit == 0 {
			continue
		}
		if v := *f.at(m).(*int); v < 0 || v > limit {
			return fmt.Errorf("%w: %s field %s=%d outside [0, %d]", ErrUnsupported, msg, f.name, v, limit)
		}
	}
	return nil
}

// checkHello is the server's entrance check on a client's hello.
func checkHello(h *helloMsg, bound int) error {
	err := checkBounded("hello", helloFields, h, bound)
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
	for i := range acceptFields {
		f := &acceptFields[i]
		if f.pin == nil {
			continue
		}
		if sent, got := fieldNum(f.pin(h)), fieldNum(f.at(acc)); sent != 0 && got != sent {
			return fmt.Errorf("%w: accept changed %s from %d to %d", ErrUnsupported, f.name, sent, got)
		}
	}
	return checkBounded("accept", acceptFields, acc, DefaultMaxBound)
}

// helloVersion reads the protocol version a hello declares, ahead of parsing
// it, so that a peer of another revision is told so whatever else its hello
// holds: the version is the first field of every hello. ok is false for bytes
// that do not start with one.
func helloVersion(hello []byte) (v uint64, ok bool) {
	if len(hello) == 0 || hello[0] != helloFields[0].tag {
		return 0, false
	}
	v, n := binary.Uvarint(hello[1:])
	return v, n > 0
}

// sendErrorFrame best-effort reports err to the peer, with its code when it
// is one of the classified rejections.
func sendErrorFrame(ep *wire.Endpoint, err error) {
	em := &errorMsg{Error: err.Error()}
	for _, ec := range errorCodes {
		if errors.Is(err, ec.err) {
			em.Code = ec.code
			break
		}
	}
	_ = ep.SendFrame(lblError, appendCtl(nil, errorFields, em))
}

// serverError decodes a ctl/error payload, re-materializing the sentinel of a
// coded rejection.
func serverError(payload []byte) error {
	var em errorMsg
	if parseCtl(errorFields, payload, &em) != nil || em.Error == "" {
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
