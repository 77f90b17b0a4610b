package sosr

import (
	"testing"

	"sosr/internal/setutil"
	"sosr/internal/workload"
)

func TestDigestRoundTrip(t *testing.T) {
	alice, bob := workload.PlantedSetsOfSets(3, 16, 20, 1<<40, 6)
	for _, proto := range []Protocol{ProtocolNaive, ProtocolNested, ProtocolCascade} {
		cfg := Config{Seed: 11, MaxChildSets: 16, MaxChildSize: 20, KnownDiff: 6, Protocol: proto}
		digest, err := BuildDigest(alice, cfg)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		res, err := ApplyDigest(digest, bob, cfg)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if SetsOfSetsDistance(res.Recovered, alice) != 0 {
			t.Fatalf("%v: wrong recovery from digest", proto)
		}
		if res.Stats.TotalBytes != len(digest) {
			t.Fatalf("%v: stats bytes %d != digest %d", proto, res.Stats.TotalBytes, len(digest))
		}
	}
}

func TestDigestSizePrediction(t *testing.T) {
	alice, _ := workload.PlantedSetsOfSets(5, 12, 16, 1<<40, 4)
	for _, proto := range []Protocol{ProtocolNaive, ProtocolNested, ProtocolCascade} {
		cfg := Config{Seed: 7, MaxChildSets: 12, MaxChildSize: 16, KnownDiff: 4, Protocol: proto}
		digest, err := BuildDigest(alice, cfg)
		if err != nil {
			t.Fatal(err)
		}
		predicted, err := DigestSize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if predicted != len(digest) {
			t.Fatalf("%v: predicted %d, actual %d", proto, predicted, len(digest))
		}
	}
}

func TestDigestSeedMismatchDetected(t *testing.T) {
	alice, bob := workload.PlantedSetsOfSets(9, 10, 12, 1<<40, 3)
	cfg := Config{Seed: 1, MaxChildSets: 10, MaxChildSize: 12, KnownDiff: 3, Protocol: ProtocolNested}
	digest, err := BuildDigest(alice, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrong := cfg
	wrong.Seed = 2
	res, err := ApplyDigest(digest, bob, wrong)
	if err == nil && SetsOfSetsDistance(res.Recovered, alice) != 0 {
		t.Fatal("seed mismatch silently corrupted recovery")
	}
	if err == nil {
		t.Log("seed mismatch coincidentally recovered (allowed but unexpected)")
	}
}

func TestDigestRejectsGarbage(t *testing.T) {
	cfg := Config{Seed: 1, KnownDiff: 2}
	if _, err := ApplyDigest([]byte("not a digest"), nil, cfg); err == nil {
		t.Fatal("garbage digest accepted")
	}
	if _, err := ApplyDigest(nil, nil, cfg); err == nil {
		t.Fatal("nil digest accepted")
	}
}

func TestDigestRequiresKnownDiff(t *testing.T) {
	if _, err := BuildDigest([][]uint64{{1}}, Config{Seed: 1}); err == nil {
		t.Fatal("unknown-d digest accepted")
	}
	if _, err := BuildDigest([][]uint64{{1}}, Config{Seed: 1, KnownDiff: 2, Protocol: ProtocolMultiRound}); err == nil {
		t.Fatal("multiround digest accepted")
	}
}

func TestDigestMatchesSimulatedTranscript(t *testing.T) {
	// The digest must be byte-for-byte what the simulated transport carries
	// (minus the self-describing header added for split-party use).
	alice, bob := workload.PlantedSetsOfSets(13, 14, 18, 1<<40, 5)
	cfg := Config{Seed: 21, MaxChildSets: 14, MaxChildSize: 18, KnownDiff: 5, Protocol: ProtocolCascade, Replicas: 1}
	digest, err := BuildDigest(alice, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ReconcileSetsOfSets(alice, bob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 4 + 1 + 8*5
	if len(digest)-hdr != sim.Stats.TotalBytes {
		t.Fatalf("digest body %d != simulated bytes %d", len(digest)-hdr, sim.Stats.TotalBytes)
	}
}

func TestDigestOneToMany(t *testing.T) {
	// One digest serves many Bobs (multicast reconciliation).
	alice, bob1 := workload.PlantedSetsOfSets(31, 12, 16, 1<<40, 4)
	_, bob2 := workload.PlantedSetsOfSets(31, 12, 16, 1<<40, 2)
	// The shape covers every party: planted insertions grow a child past 16.
	cfg := Config{Seed: 41, MaxChildSets: 12, MaxChildSize: setutil.MaxChildLen(alice, bob1, bob2), KnownDiff: 4, Protocol: ProtocolCascade}
	digest, err := BuildDigest(alice, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, bob := range [][][]uint64{bob1, bob2} {
		res, err := ApplyDigest(digest, bob, cfg)
		if err != nil {
			t.Fatalf("bob%d: %v", i+1, err)
		}
		if SetsOfSetsDistance(res.Recovered, alice) != 0 {
			t.Fatalf("bob%d: wrong recovery", i+1)
		}
	}
}

func TestDigestBuilderLifecycle(t *testing.T) {
	cfg := Config{Seed: 51, MaxChildSets: 8, MaxChildSize: 8, KnownDiff: 3, Protocol: ProtocolNested}
	b, err := NewDigestBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	children := [][]uint64{{1, 2}, {5, 6}, {9}}
	for _, cs := range children {
		if err := b.Add(cs); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot equals the batch digest over the same contents.
	batch, err := BuildDigest(children, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	if len(snap) != len(batch) {
		t.Fatalf("snapshot %dB != batch %dB", len(snap), len(batch))
	}
	for i := range snap {
		if snap[i] != batch[i] {
			t.Fatal("snapshot bytes differ from batch digest")
		}
	}
	// Live update then apply at a stale replica.
	if err := b.Remove([]uint64{9}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]uint64{100, 101}); err != nil {
		t.Fatal(err)
	}
	bobView := children // stale
	res, err := ApplyDigest(b.Snapshot(), bobView, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]uint64{{1, 2}, {5, 6}, {100, 101}}
	if SetsOfSetsDistance(res.Recovered, want) != 0 {
		t.Fatal("stale replica did not converge to builder contents")
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestDigestBuilderRequiresShape(t *testing.T) {
	if _, err := NewDigestBuilder(Config{Seed: 1, KnownDiff: 2}); err == nil {
		t.Fatal("builder without shape accepted")
	}
}
