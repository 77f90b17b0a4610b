package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/workload"
)

// TestDigestPersistRoundTrip marshals a live builder mid-stream, restores
// it, and asserts the restored builder (a) snapshots byte-identically and
// (b) keeps accepting updates whose snapshots track a parallel uninterrupted
// builder byte for byte.
func TestDigestPersistRoundTrip(t *testing.T) {
	parent, _ := workload.PlantedSetsOfSets(3, 60, 8, 1<<32, 0)
	p := Params{S: 64, H: 8}
	for _, kind := range []DigestKind{DigestNaive, DigestNested, DigestCascade} {
		coins := hashing.NewCoins(99)
		live, err := NewIncrementalDigest(kind, coins, p, 6, 0)
		if err != nil {
			t.Fatalf("kind %d: new: %v", kind, err)
		}
		for _, cs := range parent[:40] {
			if err := live.Add(cs); err != nil {
				t.Fatalf("kind %d: add: %v", kind, err)
			}
		}
		blob, err := live.MarshalBinary()
		if err != nil {
			t.Fatalf("kind %d: marshal: %v", kind, err)
		}
		k := live.Key()
		restored, err := RestoreIncrementalDigest(k.Kind, hashing.NewCoins(k.Seed), Params{S: k.S, H: k.H, U: k.U}, k.D, k.DHat, blob)
		if err != nil {
			t.Fatalf("kind %d: restore: %v", kind, err)
		}
		if !bytes.Equal(live.SnapshotMsg(), restored.SnapshotMsg()) {
			t.Fatalf("kind %d: restored snapshot diverges", kind)
		}
		if live.Len() != restored.Len() {
			t.Fatalf("kind %d: restored count %d, want %d", kind, restored.Len(), live.Len())
		}
		// The restored builder must stay patchable: add the tail, remove a
		// prefix, and track the uninterrupted builder exactly.
		for _, cs := range parent[40:] {
			if err := live.Add(cs); err != nil {
				t.Fatal(err)
			}
			if err := restored.Add(cs); err != nil {
				t.Fatalf("kind %d: restored add: %v", kind, err)
			}
		}
		for _, cs := range parent[:5] {
			if err := live.Remove(cs); err != nil {
				t.Fatal(err)
			}
			if err := restored.Remove(cs); err != nil {
				t.Fatalf("kind %d: restored remove: %v", kind, err)
			}
		}
		if !bytes.Equal(live.SnapshotMsg(), restored.SnapshotMsg()) {
			t.Fatalf("kind %d: restored builder diverged after further updates", kind)
		}
	}
}

// TestDigestPersistCorrupt asserts corrupted blobs are rejected with errors,
// never panics or silently-wrong builders.
func TestDigestPersistCorrupt(t *testing.T) {
	parent, _ := workload.PlantedSetsOfSets(4, 30, 6, 1<<30, 0)
	coins := hashing.NewCoins(7)
	p := Params{S: 32, H: 6}
	live, err := NewIncrementalDigest(DigestCascade, coins, p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range parent {
		if err := live.Add(cs); err != nil {
			t.Fatal(err)
		}
	}
	blob, _ := live.MarshalBinary()
	restore := func(b []byte) error {
		_, err := RestoreIncrementalDigest(DigestCascade, coins, p, 4, 0, b)
		return err
	}
	if err := restore(nil); err == nil {
		t.Fatal("empty blob restored")
	}
	if err := restore(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob restored")
	}
	if err := restore(append([]byte{persistFormat + 1}, blob[1:]...)); err == nil {
		t.Fatal("unknown format restored")
	}
	// Format 1 predates the compact child encodings. Its framing is the same,
	// so even a body that would otherwise load must be refused by version.
	if err := restore(append([]byte{1}, blob[1:]...)); !errors.Is(err, ErrBadDigest) || !strings.Contains(err.Error(), "format") {
		t.Fatalf("format-1 blob: got %v, want a format refusal", err)
	}
	// Wrong parameters: the table shapes derived from (p, d) won't match.
	if _, err := RestoreIncrementalDigest(DigestCascade, coins, p, 9, 0, blob); err == nil {
		t.Fatal("blob restored under mismatched parameters")
	}
	if _, err := RestoreIncrementalDigest(DigestNaive, coins, p, 4, 0, blob); err == nil {
		t.Fatal("cascade blob restored as naive")
	}
}
