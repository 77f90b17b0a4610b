package graphrecon

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"testing"

	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/prng"
)

// FuzzDegreeOrderApply feeds arbitrary signature and edge payloads to Bob's
// §5.1 half, which parses both into a reused workspace: a lying table header,
// a key width that is not a word, an edge key past the vertex count or a
// signature list of the wrong length must end in an error or a graph on n
// vertices — never a panic, a label outside the relabelled matrix, or a spin.
func FuzzDegreeOrderApply(f *testing.F) {
	// A small instance keeps an execution fast; separation is a matter of
	// luck at this size, so graphs are drawn until one exchange succeeds.
	src := prng.New(31)
	p := DegreeOrderParams{H: 14, D: 2}
	coins := hashing.NewCoins(7)
	var gb *graph.Graph
	var msgs *GraphMsgs
	for try := 0; ; try++ {
		base := graph.Gnp(48, 0.5, src)
		ga, _ := graph.Perturb(base, 1, src)
		gb = base
		var err error
		if msgs, err = DegreeOrderAlice(coins, ga, p); err == nil {
			if _, err = DegreeOrderApply(coins, gb, p, msgs.Sig, msgs.Edges); err == nil {
				break
			}
		}
		if try == 200 {
			f.Fatalf("no small instance reconciles: %v", err)
		}
	}
	mangle(msgs.Sig, func(m []byte) { f.Add(m, msgs.Edges) })
	mangle(msgs.Edges, func(m []byte) { f.Add(msgs.Sig, m) })
	f.Fuzz(func(t *testing.T, sig, edges []byte) {
		g, err := DegreeOrderApply(coins, gb, p, sig, edges)
		if err == nil && (g == nil || g.N != gb.N) {
			t.Fatal("no graph on n vertices without error")
		}
	})
}

// mangle seeds a fuzz corpus with msg, nothing, msg cut short at several
// points, and msg with one bit flipped at several offsets.
func mangle(msg []byte, add func(m []byte)) {
	add(msg)
	add(nil)
	for _, cut := range []int{4, 12, 24, len(msg) / 2, len(msg) - 8, len(msg) - 1} {
		add(msg[:cut])
	}
	for _, at := range []int{0, 4, 8, 13, 21, len(msg) / 3, len(msg) - 9, len(msg) - 1} {
		flipped := append([]byte(nil), msg...)
		flipped[at] ^= 0x04
		add(flipped)
	}
}

// FuzzNeighborhoodApply feeds arbitrary signature and edge payloads to Bob's
// §5.2 half: the signature payload is a cascade digest of packed multisets,
// whose recovered words, sizes and closest matches are the peer's to choose,
// and the edge payload is read against the labelling they give. Any pair must
// end in an error or a graph on n vertices — never a panic.
func FuzzNeighborhoodApply(f *testing.F) {
	c := newNbrCase(f, 32)
	mangle(c.msgs.Sig, func(m []byte) { f.Add(m, c.msgs.Edges) })
	mangle(c.msgs.Edges, func(m []byte) { f.Add(c.msgs.Sig, m) })
	f.Fuzz(func(t *testing.T, sig, edges []byte) {
		g, err := NeighborhoodApply(c.coins, c.gb, c.p, c.sideB, c.maxSig, sig, edges)
		if err == nil && (g == nil || g.N != c.gb.N) {
			t.Fatal("no graph on n vertices without error")
		}
	})
}

// FuzzPolyApply feeds arbitrary poly-recon messages to Bob's Theorem 4.3
// half. The modulus is the peer's number: q = 0 used to divide by zero, a q
// other than Bob's or an r at or past it evaluated under the peer's field. Any
// message must end in ErrBadPolyMsg, ErrNoCandidate, or a graph on n vertices
// within d flips of Bob's — never a panic.
func FuzzPolyApply(f *testing.F) {
	src := prng.New(41)
	ga := graph.Gnp(5, 0.5, src)
	gb, _ := graph.Perturb(ga, 1, src)
	coins := hashing.NewCoins(9)
	for d := 0; d <= 3; d++ {
		msg, err := PolyAlice(coins, ga, d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg, uint8(d))
		for _, field := range []int{0, 8, 16} {
			for _, word := range []uint64{0, 1, ^uint64(0), binary.LittleEndian.Uint64(msg)} {
				hostile := append([]byte(nil), msg...)
				binary.LittleEndian.PutUint64(hostile[field:], word)
				f.Add(hostile, uint8(d))
			}
		}
		f.Add(msg[:PolyMsgSize-1], uint8(d))
		f.Add(append(msg, 0), uint8(d))
	}
	f.Fuzz(func(t *testing.T, msg []byte, d uint8) {
		flips := int(d % 4)
		g, err := PolyApply(gb, flips, msg)
		switch {
		case err != nil && !errors.Is(err, ErrBadPolyMsg) && !errors.Is(err, ErrNoCandidate):
			t.Fatalf("unclassified error %v", err)
		case err == nil && (g == nil || g.N != gb.N || bits.OnesCount64(graph.Code(g)^graph.Code(gb)) > flips):
			t.Fatal("no graph within d flips of Bob's without error")
		}
	})
}
