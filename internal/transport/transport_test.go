package transport

import "testing"

func TestRoundCounting(t *testing.T) {
	s := New()
	s.Send(Alice, "m1", []byte{1})
	if s.Stats().Rounds != 1 {
		t.Fatalf("rounds = %d", s.Stats().Rounds)
	}
	// Consecutive sends by the same party share a round ("in parallel").
	s.Send(Alice, "m2", []byte{2, 3})
	if s.Stats().Rounds != 1 {
		t.Fatalf("rounds = %d after parallel send", s.Stats().Rounds)
	}
	s.Send(Bob, "m3", []byte{4})
	if s.Stats().Rounds != 2 {
		t.Fatalf("rounds = %d", s.Stats().Rounds)
	}
	s.Send(Alice, "m4", []byte{5})
	if s.Stats().Rounds != 3 {
		t.Fatalf("rounds = %d", s.Stats().Rounds)
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

func TestRoleString(t *testing.T) {
	if Alice.String() != "alice" || Bob.String() != "bob" {
		t.Fatal("role names wrong")
	}
}

// TestRecordingSessionDeliversTamperedBytes: the receiver gets what the
// tamper function made of the transmitted bytes, and the sender's buffer is
// not the receiver's.
func TestRecordingSessionDeliversTamperedBytes(t *testing.T) {
	s := New()
	s.SetTamper(func(label string, payload []byte) []byte {
		payload[0] ^= 0xff
		return payload
	})
	sent := []byte{0x0f, 2}
	recv := s.Send(Alice, "x", sent)
	if recv[0] != 0xf0 {
		t.Fatalf("receiver got pristine bytes %v; tamper was dropped", recv)
	}
	if sent[0] != 0x0f {
		t.Fatalf("tampering reached the sender's buffer: %v", sent)
	}
}
