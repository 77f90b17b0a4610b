package transport

import "testing"

func TestRoundCounting(t *testing.T) {
	s := New()
	s.Send(Alice, "m1", []byte{1})
	if s.Rounds() != 1 {
		t.Fatalf("rounds = %d", s.Rounds())
	}
	// Consecutive sends by the same party share a round ("in parallel").
	s.Send(Alice, "m2", []byte{2, 3})
	if s.Rounds() != 1 {
		t.Fatalf("rounds = %d after parallel send", s.Rounds())
	}
	s.Send(Bob, "m3", []byte{4})
	if s.Rounds() != 2 {
		t.Fatalf("rounds = %d", s.Rounds())
	}
	s.Send(Alice, "m4", []byte{5})
	if s.Rounds() != 3 {
		t.Fatalf("rounds = %d", s.Rounds())
	}
}

func TestByteAccounting(t *testing.T) {
	s := New()
	s.Send(Alice, "a", make([]byte, 10))
	s.Send(Bob, "b", make([]byte, 3))
	if s.TotalBytes() != 13 || s.BytesFrom(Alice) != 10 || s.BytesFrom(Bob) != 3 {
		t.Fatal("byte accounting wrong")
	}
	st := s.Stats()
	if st.TotalBytes != 13 || st.Messages != 2 || st.Rounds != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestSendCopiesPayload(t *testing.T) {
	s := New()
	buf := []byte{1, 2, 3}
	recv := s.Send(Alice, "x", buf)
	buf[0] = 99
	if recv[0] != 1 {
		t.Fatal("receiver sees sender's later mutation")
	}
}

func TestBreakdown(t *testing.T) {
	s := New()
	s.Send(Alice, "iblt", make([]byte, 5))
	s.Send(Alice, "iblt", make([]byte, 7))
	s.Send(Bob, "est", make([]byte, 2))
	bd := s.Breakdown()
	if bd["iblt"] != 12 || bd["est"] != 2 {
		t.Fatalf("breakdown = %v", bd)
	}
	if len(s.Messages()) != 3 {
		t.Fatal("messages lost")
	}
}

func TestRecordingSession(t *testing.T) {
	s := NewRecording()
	s.Send(Alice, "x", []byte{9, 8})
	if got := s.Payload(0); len(got) != 2 || got[0] != 9 {
		t.Fatalf("payload = %v", got)
	}
}

func TestPayloadPanicsWithoutRecording(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Payload(0)
}

func TestRoleString(t *testing.T) {
	if Alice.String() != "alice" || Bob.String() != "bob" {
		t.Fatal("role names wrong")
	}
}

func TestRecordingSessionDeliversTamperedBytes(t *testing.T) {
	s := NewRecording()
	s.SetTamper(func(label string, payload []byte) []byte {
		payload[0] ^= 0xff
		return payload
	})
	recv := s.Send(Alice, "x", []byte{0x0f, 2})
	if recv[0] != 0xf0 {
		t.Fatalf("receiver got pristine bytes %v; tamper was dropped on a recording session", recv)
	}
	if got := s.Payload(0); got[0] != 0xf0 {
		t.Fatalf("transcript holds %v, want the transmitted (tampered) bytes", got)
	}
	// Mutating the recorded transcript must not alias the receiver's copy.
	s.Payload(0)[1] = 77
	if recv[1] != 2 {
		t.Fatal("transcript mutation leaked into the receiver's payload")
	}
}
