// Package transport simulates the two-party communication channel between
// Alice and Bob. Every protocol in this repository moves cross-party data
// exclusively through a Session, which forces full serialization to bytes
// and records honest per-message sizes and round counts.
//
// Following the paper's convention (§2), the number of rounds is the number
// of total messages sent, except that consecutive messages from the same
// sender count as a single round ("in parallel" transmissions, e.g. the
// signature tables and the edge IBLT of Theorem 5.2 travel together).
package transport

import "fmt"

// Role identifies a protocol participant.
type Role int

// The two participants.
const (
	Alice Role = iota
	Bob
)

// String returns the participant name.
func (r Role) String() string {
	if r == Alice {
		return "alice"
	}
	return "bob"
}

// Msg records one transmitted message.
type Msg struct {
	From  Role
	Label string
	Bytes int
}

// Session is the two-party link every in-process protocol driver writes to:
// both parties co-simulated in one process, a sequence of labeled messages,
// each attributed to a sender, with honest byte and round accounting. Drivers
// must treat the bytes Send returns — not sender-local state — as what the
// receiving party observed. (A wire.Endpoint, one party per machine over a
// framed net.Conn, mirrors its frames into a Session through Record, so both
// report the same Stats.)
type Session struct {
	msgs    []Msg
	rounds  int
	last    Role
	started bool
	tamper  func(label string, payload []byte) []byte
}

// SetTamper installs a function applied to every payload in transit,
// simulating corruption or an adversarial channel. Testing aid: protocols
// must either detect tampering (error) or still produce a correct result —
// never a silently wrong one.
func (s *Session) SetTamper(fn func(label string, payload []byte) []byte) {
	s.tamper = fn
}

// New returns an empty session.
func New() *Session { return &Session{} }

// Record notes a transmitted message's metadata without carrying its bytes.
// Wire endpoints mirror their frames through this so Stats/Rounds match the
// in-process accounting with no payload copy.
func (s *Session) Record(from Role, label string, size int) {
	if !s.started || from != s.last {
		s.rounds++
		s.started = true
		s.last = from
	}
	s.msgs = append(s.msgs, Msg{From: from, Label: label, Bytes: size})
}

// Reset empties the session for the next conversation on the same link,
// keeping its message storage.
func (s *Session) Reset() {
	*s = Session{msgs: s.msgs[:0], tamper: s.tamper}
}

// Send transmits payload from the given role and returns the bytes as the
// receiving party sees them (a defensive copy, so a sender mutating its
// buffer afterwards cannot leak state across the "wire").
func (s *Session) Send(from Role, label string, payload []byte) []byte {
	s.Record(from, label, len(payload))
	recv := make([]byte, len(payload))
	copy(recv, payload)
	if s.tamper != nil {
		recv = s.tamper(label, recv)
	}
	return recv
}

// TotalBytes returns the total bytes transmitted in both directions.
func (s *Session) TotalBytes() int {
	n := 0
	for _, m := range s.msgs {
		n += m.Bytes
	}
	return n
}

// BytesFrom returns total bytes sent by one role.
func (s *Session) BytesFrom(r Role) int {
	n := 0
	for _, m := range s.msgs {
		if m.From == r {
			n += m.Bytes
		}
	}
	return n
}

// Stats is a compact summary of a finished protocol run.
type Stats struct {
	Rounds     int
	TotalBytes int
	AliceBytes int
	BobBytes   int
	Messages   int
}

// Stats summarizes the session.
func (s *Session) Stats() Stats {
	return Stats{
		Rounds:     s.rounds,
		TotalBytes: s.TotalBytes(),
		AliceBytes: s.BytesFrom(Alice),
		BobBytes:   s.BytesFrom(Bob),
		Messages:   len(s.msgs),
	}
}

// String formats the stats for logs.
func (st Stats) String() string {
	return fmt.Sprintf("rounds=%d bytes=%d (alice=%d bob=%d) msgs=%d",
		st.Rounds, st.TotalBytes, st.AliceBytes, st.BobBytes, st.Messages)
}
