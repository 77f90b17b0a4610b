package sosrnet

import (
	"context"
	"errors"
	"math/bits"
	"net"
	"slices"
	"testing"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/setutil"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

// TestEveryScheduleEndsWithinLimit plays a server whose every attempt fails —
// each payload is two bytes no plan accepts — against one row per schedule a
// sets-of-sets session can run. The client must take exactly the attempts its
// flow allows under the accept (flow.limit, or the accepted replicas for
// multi-round), close the session the way its schedule does, and return its
// give-up: a replicated run and multi-round send ctl/done{ok:false} after the
// last attempt and return ErrGaveUp; a doubling run answers its last attempt
// with the protocol's own "retry", which tells the server, and returns
// ErrGaveUp; a probe's single shot sends ctl/done{ok:false} and returns the
// attempt's own failure, as core.NaiveUnknownD does in process.
func TestEveryScheduleEndsWithinLimit(t *testing.T) {
	_, bob := sosPair()
	bob = setutil.CanonicalSets(bob)
	// A doubling runs at d = 1, 2, 4, … up to the first d above 4·s·h, as
	// core's loop does in process; the fake server accepts Bob's own shape.
	doublings := bits.Len(uint(4*len(bob)*setutil.MaxChildLen(bob))) + 1
	for _, tc := range []struct {
		name     string
		proto    sosr.Protocol
		d        int
		probe    bool     // Bob opens with the child-difference probe
		label    string   // Alice's frame per attempt
		limit    int      // attempts the schedule allows
		closing  []string // what Bob answers each attempt with, in order
		gaveUp   bool     // the error is ErrGaveUp, not the attempt's own
		doneSent bool
	}{
		{"known d, replicated", sosr.ProtocolCascade, 8, false, "cascade-iblts", 3,
			[]string{lblRetry, lblRetry, lblDone}, true, true},
		{"doubling", sosr.ProtocolCascade, 0, false, "cascade-iblts", doublings,
			slices.Repeat([]string{"retry"}, doublings), true, false},
		{"probe then single shot", sosr.ProtocolNaive, 0, true, "naive-iblt", 1,
			[]string{lblDone}, false, true},
		{"multi-round, known d", sosr.ProtocolMultiRound, 8, false, "hash-iblt", 3,
			[]string{lblRetry, lblRetry, lblDone}, true, true},
		{"multi-round, unknown d", sosr.ProtocolMultiRound, 0, true, "hash-iblt", 1,
			[]string{lblDone}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			type seen struct {
				sent    int      // payloads Alice sent
				answers []string // Bob's frame after each
				done    *doneMsg
			}
			served := make(chan seen, 1)
			go func() {
				var got seen
				defer func() { served <- got }()
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				ep := wire.NewEndpoint(conn, transport.Alice)
				payload, err := ep.RecvExpect(lblHello)
				var h helloMsg
				if err != nil || parseCtl(helloFields, payload, &h) != nil {
					return
				}
				p, err := core.Params{S: h.CS, H: h.CH, U: h.CU}.Normalized()
				if err != nil {
					return
				}
				if ep.SendFrame(lblAccept, appendCtl(nil, acceptFields, &acceptMsg{
					V: protoVersion, Kind: KindSetsOfSets, Protocol: tc.proto.String(),
					D: h.D, DHat: core.DHat(max(h.D, 1), p.S), Replicas: 3, S: p.S, H: p.H, U: p.U,
				})) != nil {
					return
				}
				if tc.probe {
					if _, err := ep.RecvExpect("childdiff-estimator"); err != nil {
						return
					}
				}
				// One attempt past the limit: a client that asks for it is
				// told it is over, as a real server would.
				for k := 0; k <= tc.limit; k++ {
					if k == tc.limit {
						sendErrorFrame(ep, ErrGaveUp)
						return
					}
					if ep.SendFrame(tc.label, []byte{0xde, 0xad}) != nil {
						return
					}
					got.sent++
					label, payload, err := ep.RecvFrame()
					if err != nil {
						return
					}
					got.answers = append(got.answers, label)
					if label == lblDone {
						got.done = new(doneMsg)
						if parseCtl(doneFields, payload, got.done) != nil {
							got.done = nil
						}
						return
					}
				}
			}()
			c := Dial(ln.Addr().String())
			defer c.Close()
			c.Timeout = 10 * time.Second
			res, _, err := c.SetsOfSets(context.Background(), "docs", bob, sosr.Config{Seed: 3, Protocol: tc.proto, KnownDiff: tc.d})
			got := <-served
			if res != nil || err == nil {
				t.Fatalf("result %v, err %v; want a failure", res != nil, err)
			}
			if errors.Is(err, ErrGaveUp) != tc.gaveUp || errors.Is(err, ErrServer) {
				t.Errorf("err %v: ErrGaveUp %v, want %v", err, errors.Is(err, ErrGaveUp), tc.gaveUp)
			}
			if got.sent != tc.limit || !slices.Equal(got.answers, tc.closing) {
				t.Errorf("%d attempts answered %q; want %d answered %q", got.sent, got.answers, tc.limit, tc.closing)
			}
			if (got.done != nil) != tc.doneSent || got.done != nil && (got.done.OK || got.done.Attempts != tc.limit) {
				t.Errorf("closing report %+v; want one: %v, not ok, %d attempts", got.done, tc.doneSent, tc.limit)
			}
		})
	}
}
