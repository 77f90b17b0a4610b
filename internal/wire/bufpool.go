package wire

import (
	"math/bits"
	"sync"
)

// Frame buffers — the scratch a frame is encoded into before it is written,
// and the body of every frame received — are shared by all endpoints of the
// process through size-classed sync.Pools. An endpoint holds a buffer only
// while a frame is in flight or inside its delivered-frames ring, so an idle
// connection pins nothing payload-sized, and what the pools themselves hold
// is dropped by the garbage collector like any other sync.Pool content.

// Buffer classes are powers of two from 512 B (control frames) to 512 MiB,
// which covers DefaultMaxPayload plus framing and so every frame an endpoint
// receives; a larger frame, which only a send can be, gets a buffer of its own
// that no pool keeps.
const (
	minBufShift = 9
	maxBufShift = 29
)

var bufPools [maxBufShift - minBufShift + 1]sync.Pool

// frameBuf is a pooled buffer. Pools hold the pointer, so taking and
// returning a buffer allocates nothing.
type frameBuf struct{ b []byte }

// bufClass returns the pool index for a buffer of n bytes, or -1 when n is
// beyond the largest class.
func bufClass(n int) int {
	if n <= 1<<minBufShift {
		return 0
	}
	if n > 1<<maxBufShift {
		return -1
	}
	return bits.Len(uint(n-1)) - minBufShift
}

// getBuf returns a buffer with capacity for n bytes.
func getBuf(n int) *frameBuf {
	c := bufClass(n)
	if c < 0 {
		return &frameBuf{b: make([]byte, n)}
	}
	if fb, ok := bufPools[c].Get().(*frameBuf); ok {
		return fb
	}
	return &frameBuf{b: make([]byte, 1<<(c+minBufShift))}
}

// putBuf returns a buffer no frame references any longer.
func putBuf(fb *frameBuf) {
	if c := bufClass(cap(fb.b)); c >= 0 && cap(fb.b) == 1<<(c+minBufShift) {
		bufPools[c].Put(fb)
	}
}
