// Package estimator implements set-difference estimators (paper §3 and
// Appendix A). A set-difference estimator implicitly maintains two sets S1
// and S2 and supports update, merge and query, where query returns an
// estimate of |S1 ⊕ S2| accurate to within a constant factor.
//
// Two estimators are provided:
//
//   - Estimator: the paper's improved sketch (Theorem 3.1 / Appendix A),
//     built from streaming ℓ0-estimation. Dimensions are subsampled into
//     levels by the least significant bit of a pairwise-independent hash;
//     each level hashes into a small array of 2-bit counters mod 4 that are
//     stored 3 bits wide (one always-zero padding bit) so that two sketches
//     merge with word-wise addition plus a single mask, exactly the word-RAM
//     trick of Appendix A.
//
//   - Strata: the strata estimator of Eppstein–Goodrich–Uyeda–Varghese [14]
//     (log u levels of small IBLTs), implemented as the baseline the paper
//     compares against; E5 measures the constant-factor and size differences.
package estimator

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"sosr/internal/hashing"
)

// Side selects which implicit set an update targets.
type Side int

// The two implicit sets of a set-difference estimator.
const (
	SideA Side = 1
	SideB Side = 2
)

const (
	groupsPerWord = 21 // 3 bits per bucket, 63 bits used per word
	groupBits     = 3
)

// lowBitsMask keeps the two value bits of every bucket (clearing padding).
var lowBitsMask = func() uint64 {
	var m uint64
	for i := 0; i < groupsPerWord; i++ {
		m |= 3 << (groupBits * i)
	}
	return m
}()

// bit0Mask marks bit 0 of every bucket.
var bit0Mask = func() uint64 {
	var m uint64
	for i := 0; i < groupsPerWord; i++ {
		m |= 1 << (groupBits * i)
	}
	return m
}()

// Params configures an Estimator. The zero value is replaced by defaults.
type Params struct {
	// Levels is the number of subsampling levels; the estimator can estimate
	// differences up to roughly 2^Levels. Default 44.
	Levels int
	// Buckets is the number of 2-bit counters per subroutine instance;
	// must be a multiple of groupsPerWord. Default 63.
	Buckets int
	// Subreplicas amplifies each level's subroutine (max is taken), the
	// paper's 1-η amplification. Default 2.
	Subreplicas int
	// Replicas is the number of parallel sketches whose median is the final
	// answer, the paper's log(1/δ) amplification. Default 3.
	Replicas int
}

func (p Params) withDefaults() Params {
	if p.Levels <= 0 {
		p.Levels = 44
	}
	if p.Buckets <= 0 {
		p.Buckets = 63
	}
	if rem := p.Buckets % groupsPerWord; rem != 0 {
		p.Buckets += groupsPerWord - rem
	}
	if p.Subreplicas <= 0 {
		p.Subreplicas = 2
	}
	if p.Replicas <= 0 {
		p.Replicas = 3
	}
	return p
}

// threshold is the ">8" report threshold from Appendix A.
const threshold = 8

// Estimator is the paper's set-difference estimator (Theorem 3.1).
// Construct with New; all fields are deterministic functions of the seed, so
// two estimators built from shared coins with the same Params can be merged.
type Estimator struct {
	params Params
	seed   uint64
	// words[r][l][s] is the packed bucket array for replica r, level l,
	// subreplica s; flattened to a single slice for locality.
	words        []uint64
	wordsPerSub  int
	levelHashers []hashing.Pairwise // one per replica: level assignment
}

// New creates an estimator with the given parameters and seed.
func New(p Params, seed uint64) *Estimator {
	e := new(Estimator)
	e.Reset(p, seed)
	return e
}

// Reset makes e an empty estimator with the given parameters and seed — what
// New returns — reusing its storage when it is large enough, so one estimator
// can sketch many sets in sequence (the per-child sketches of Theorem 3.9).
// The zero Estimator is a valid target.
func (e *Estimator) Reset(p Params, seed uint64) {
	p = p.withDefaults()
	wps := p.Buckets / groupsPerWord
	n := p.Replicas * p.Levels * p.Subreplicas * wps
	e.params, e.seed, e.wordsPerSub = p, seed, wps
	if cap(e.words) < n {
		e.words = make([]uint64, n)
	} else {
		e.words = e.words[:n]
		clear(e.words)
	}
	e.levelHashers = e.levelHashers[:0]
	for r := 0; r < p.Replicas; r++ {
		e.levelHashers = append(e.levelHashers, hashing.NewPairwise(seed^(0x11ee11<<8+uint64(r)*0x9e3779b97f4a7c15)))
	}
}

func (e *Estimator) subWords(r, l, s int) []uint64 {
	p := e.params
	base := ((r*p.Levels+l)*p.Subreplicas + s) * e.wordsPerSub
	return e.words[base : base+e.wordsPerSub]
}

// level assigns x to a level for replica r: level i with probability 2^-(i+1)
// (least significant bit of a pairwise hash), capped at Levels-1.
func (e *Estimator) level(r int, x uint64) int {
	h := e.levelHashers[r].Hash(x)
	l := bits.TrailingZeros64(h | (1 << 62))
	if l >= e.params.Levels {
		l = e.params.Levels - 1
	}
	return l
}

// Add records element x as a member of the given side. Adding the same
// element to both sides cancels exactly (all counter updates are mod 4 with
// +1 for SideA and -1 ≡ +3 for SideB).
func (e *Estimator) Add(x uint64, side Side) {
	delta := uint64(1)
	if side == SideB {
		delta = 3
	} else if side != SideA {
		panic("estimator: invalid side")
	}
	p := e.params
	for r := 0; r < p.Replicas; r++ {
		l := e.level(r, x)
		for s := 0; s < p.Subreplicas; s++ {
			// HashWord equals HashBytes over x's LE encoding, so sketches stay
			// mergeable with any previously serialized counterpart.
			h := hashing.HashWord(e.seed^uint64(r*1000003+l*1009+s*31+7), x)
			g := int(h % uint64(p.Buckets))
			w := e.subWords(r, l, s)
			wi, shift := g/groupsPerWord, uint(groupBits*(g%groupsPerWord))
			val := (w[wi] >> shift) & 3
			val = (val + delta) & 3
			w[wi] = (w[wi] &^ (7 << shift)) | (val << shift)
		}
	}
}

// ErrIncompatible indicates a merge between estimators with different
// parameters or seeds.
var ErrIncompatible = errors.New("estimator: incompatible estimators")

// CopyFrom makes e an independent copy of src, reusing e's storage when it is
// large enough, for loops that merge one sketch against many counterparts
// (the Theorem 3.9 matching step).
func (e *Estimator) CopyFrom(src *Estimator) {
	words, hashers := e.words[:0], e.levelHashers[:0]
	*e = *src
	e.words = append(words, src.words...)
	e.levelHashers = append(hashers, src.levelHashers...)
}

// nonzeroBuckets counts buckets with nonzero value in a packed word slice,
// using the word-parallel trick from Appendix A (OR the two value bits into
// bit 0 of each group, then popcount).
func nonzeroBuckets(w []uint64) int {
	n := 0
	for _, x := range w {
		y := (x | (x >> 1)) & bit0Mask
		n += bits.OnesCount64(y)
	}
	return n
}

// Estimate returns the estimated size of |S1 ⊕ S2|. Per Appendix A: for each
// replica, the answer is 2^(i*) scaled by a calibration constant, where i*
// is the deepest level whose (amplified) subroutine reports more than 8
// nonzero dimensions; when no level exceeds the threshold, the replica sums
// the exact per-level counts instead (the "promise ≤ c, exact output" small
// regime). The final answer is the median over replicas.
func (e *Estimator) Estimate() uint64 {
	p := e.params
	var few [8]uint64 // the usual replica counts stay on the stack
	per := few[:0]
	for r := 0; r < p.Replicas; r++ {
		star := -1
		for l := p.Levels - 1; l >= 0; l-- {
			count := 0
			for s := 0; s < p.Subreplicas; s++ {
				if c := nonzeroBuckets(e.subWords(r, l, s)); c > count {
					count = c
				}
			}
			if count > threshold {
				star = l
				break
			}
		}
		if star < 0 {
			total := 0
			for l := 0; l < p.Levels; l++ {
				count := 0
				for s := 0; s < p.Subreplicas; s++ {
					if c := nonzeroBuckets(e.subWords(r, l, s)); c > count {
						count = c
					}
				}
				total += count
			}
			per = append(per, uint64(total))
			continue
		}
		// Level i collects a 2^-(i+1) sample; seeing >threshold survivors at
		// level i* suggests d ≈ 2·threshold·2^(i*+1) in expectation; the
		// constant is validated by estimator tests and E5.
		per = append(per, uint64(2*threshold)<<uint(star+1))
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// SerializedSize returns the exact Marshal size in bytes.
func (e *Estimator) SerializedSize() int {
	return 4*4 + 8 + len(e.words)*8
}

// Marshal serializes the estimator (parameters, seed, packed words).
func (e *Estimator) Marshal() []byte {
	return e.AppendMarshal(make([]byte, 0, e.SerializedSize()))
}

// AppendMarshal appends the Marshal encoding to dst and returns the extended
// slice, so a message carrying many estimators is built in one buffer.
func (e *Estimator) AppendMarshal(dst []byte) []byte {
	p := e.params
	dst = slices.Grow(dst, e.SerializedSize())
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Levels))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Buckets))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Subreplicas))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Replicas))
	dst = binary.LittleEndian.AppendUint64(dst, e.seed)
	for _, w := range e.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// MergeMarshaled folds a serialized estimator into e straight from its
// Marshal encoding, without materialising the second estimator. This is the
// O(1)-per-word merge of Appendix A: each word is added then masked; because
// every bucket keeps a zero padding bit, bucket sums cannot carry into their
// neighbors, and the mask reduces every bucket mod 4 and restores the
// padding. The header must declare e's own parameters and seed and the body
// hold all its words, else ErrIncompatible, and e is unchanged. Nothing is
// sized from the input.
func (e *Estimator) MergeMarshaled(buf []byte) error {
	if len(buf) < e.SerializedSize() {
		return fmt.Errorf("%w: %d bytes, this shape serializes to %d", ErrIncompatible, len(buf), e.SerializedSize())
	}
	p := Params{
		Levels:      int(binary.LittleEndian.Uint32(buf[0:])),
		Buckets:     int(binary.LittleEndian.Uint32(buf[4:])),
		Subreplicas: int(binary.LittleEndian.Uint32(buf[8:])),
		Replicas:    int(binary.LittleEndian.Uint32(buf[12:])),
	}
	if p.withDefaults() != e.params || binary.LittleEndian.Uint64(buf[16:]) != e.seed {
		return ErrIncompatible
	}
	for i := range e.words {
		// The peer's padding bits are masked off first: set, they would carry
		// a bucket's sum into its neighbour.
		o := binary.LittleEndian.Uint64(buf[24+8*i:]) & lowBitsMask
		e.words[i] = (e.words[i] + o) & lowBitsMask
	}
	return nil
}

// CompactParams returns parameters sized for differences up to maxDiff,
// used by protocols that transmit one estimator per child set and therefore
// care about constant factors (Theorem 3.9's LB lists).
func CompactParams(maxDiff int) Params {
	levels := bits.Len(uint(maxDiff)) + 2
	if levels < 6 {
		levels = 6
	}
	return Params{Levels: levels, Buckets: 63, Subreplicas: 2, Replicas: 3}
}
