package objgraph

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Incremental fingerprints. A detection campaign fingerprints the same
// receiver graph on every wrapped call, and between two consecutive
// snapshots most of the graph provably hasn't changed — the only writers
// are the wrapped methods themselves. FPCache exploits that with two
// mechanisms, none of which may change a fingerprint's value:
//
//   - Large-leaf memoization: big flat []byte/string/byte-array leaves
//     (≥ fpLeafFrameMin) hash once via bulkHash128; reuse is verified by
//     an exact content compare ([]byte: memcmp against a private copy;
//     string: == against the retained immutable string), so a stale
//     entry can never be replayed — a mutated leaf fails the compare and
//     is rehashed in place.
//   - Generation-keyed root reuse: the digest of a single pointer root's
//     whole frame is keyed by (pointer, *typePlan, generation). The
//     owning session bumps the generation (one atomic) on every wrapped
//     call entry and again before each after-fingerprint, so a hit is
//     only taken when no wrapped mutation could have touched the graph
//     since the digest was computed.

const (
	// fpLeafFrameMin is the flat-leaf size (bytes) at which content is
	// framed as an independent digest instead of streamed word by word.
	// The framing decision is a pure function of the length so cold and
	// cached encoders always agree on the spelling.
	fpLeafFrameMin = 1024
	// DefaultFPCacheBudget bounds the leaf-content bytes a cache pins
	// for reuse verification when no explicit budget is configured.
	DefaultFPCacheBudget = 8 << 20
)

// FPCacheStats reports cache effectiveness counters.
type FPCacheStats struct {
	// Hits counts verified leaf replays and generation-valid root reuses.
	Hits int64
	// Misses counts lookups that had to hash content or a whole frame.
	Misses int64
	// Bytes is the leaf content currently pinned for verification.
	Bytes int64
}

// FPCache is a per-session incremental fingerprint cache. It is NOT safe
// for concurrent use: each session owns exactly one, matching the
// single-goroutine (or Serialize-locked) discipline of session state.
// Only Bump is atomic, so the owning session can invalidate cheaply from
// its wrapped-call prologue.
type FPCache struct {
	gen    atomic.Uint64
	budget int64
	bytes  int64
	hits   int64
	misses int64
	leaves map[fpLeafKey]*fpLeafEntry
	roots  map[fpRootKey]fpRootEntry
}

// fpLeafKey identifies a flat leaf by backing-store pointer and length.
type fpLeafKey struct {
	ptr uintptr
	n   int
}

// fpLeafEntry memoizes one leaf's content digest plus the verification
// material: buf holds a private copy for mutable []byte leaves, str the
// retained string for immutable string leaves (exactly one is set).
type fpLeafEntry struct {
	d   FP
	buf []byte
	str string
}

// fpRootKey identifies a whole root frame: the pointer and its compiled
// type plan (plans are interned per reflect.Type, so the pair is exact).
type fpRootKey struct {
	ptr  uintptr
	plan *typePlan
}

// fpRootEntry is a frame digest valid while the generation is unchanged.
type fpRootEntry struct {
	gen uint64
	d   FP
}

// NewFPCache returns an empty cache. budget caps the leaf-content bytes
// pinned for verification; <= 0 selects DefaultFPCacheBudget.
func NewFPCache(budget int64) *FPCache {
	if budget <= 0 {
		budget = DefaultFPCacheBudget
	}
	return &FPCache{
		budget: budget,
		leaves: make(map[fpLeafKey]*fpLeafEntry),
		roots:  make(map[fpRootKey]fpRootEntry),
	}
}

// Bump advances the generation, invalidating every root-frame entry.
// Leaf entries survive — their reuse is verified by content compare, not
// by generation. Safe to call concurrently (a single atomic add).
func (c *FPCache) Bump() { c.gen.Add(1) }

// Stats returns the current counters.
func (c *FPCache) Stats() FPCacheStats {
	return FPCacheStats{Hits: c.hits, Misses: c.misses, Bytes: c.bytes}
}

// leafBytes returns the memoized content digest of b, verifying reuse
// with an exact compare against the entry's private copy. Mutation under
// the same backing array fails the compare and refreshes the entry in
// place; new leaves are admitted while the byte budget lasts.
func (c *FPCache) leafBytes(b []byte) FP {
	key := fpLeafKey{ptr: uintptr(unsafe.Pointer(&b[0])), n: len(b)}
	if ent := c.leaves[key]; ent != nil {
		if ent.buf != nil && bytes.Equal(ent.buf, b) {
			c.hits++
			return ent.d
		}
		c.misses++
		ent.d = bulkHash128(b)
		ent.str = ""
		ent.buf = append(ent.buf[:0], b...)
		return ent.d
	}
	c.misses++
	d := bulkHash128(b)
	if c.bytes+int64(len(b)) <= c.budget {
		cp := make([]byte, len(b))
		copy(cp, b)
		c.leaves[key] = &fpLeafEntry{d: d, buf: cp}
		c.bytes += int64(len(b))
	}
	return d
}

// leafString is leafBytes for strings: a private clone of the string is
// retained as the verification material, keyed by the original's data
// pointer. (Retaining s itself would be cheaper, but storing a parameter
// makes it escape — and with it the caller's whole roots slice, breaking
// the zero-alloc steady state.)
func (c *FPCache) leafString(s string) FP {
	key := fpLeafKey{ptr: uintptr(unsafe.Pointer(unsafe.StringData(s))), n: len(s)}
	if ent := c.leaves[key]; ent != nil {
		if ent.buf == nil && ent.str == s {
			c.hits++
			return ent.d
		}
		c.misses++
		ent.d = bulkHash128String(s)
		ent.str = strings.Clone(s)
		ent.buf = nil
		return ent.d
	}
	c.misses++
	d := bulkHash128String(s)
	if c.bytes+int64(len(s)) <= c.budget {
		c.leaves[key] = &fpLeafEntry{d: d, str: strings.Clone(s)}
		c.bytes += int64(len(s))
	}
	return d
}

// bulkHash128 digests a large flat payload with four independent
// accumulator lanes, 32 bytes per round — built for memory-bandwidth
// throughput where the word-by-word streaming mix (two dependent
// multiplies per 8 bytes) runs out of ILP. Same non-cryptographic
// collision stance as fpHash. The length is folded into the lane seeds,
// so payloads of different lengths never share a tail encoding.
func bulkHash128(p []byte) FP {
	n := uint64(len(p))
	a0 := fpSeedA ^ n*fpMulA
	a1 := fpSeedB + bits.RotateLeft64(n, 23)
	a2 := fpMulA ^ bits.RotateLeft64(n, 43)
	a3 := fpMulB + n*fpSeedB
	for len(p) >= 32 {
		a0 = bits.RotateLeft64(a0^(binary.LittleEndian.Uint64(p)*fpBulkM1), 29) * fpBulkM2
		a1 = bits.RotateLeft64(a1^(binary.LittleEndian.Uint64(p[8:])*fpBulkM2), 31) * fpBulkM1
		a2 = bits.RotateLeft64(a2^(binary.LittleEndian.Uint64(p[16:])*fpBulkM1), 33) * fpBulkM2
		a3 = bits.RotateLeft64(a3^(binary.LittleEndian.Uint64(p[24:])*fpBulkM2), 37) * fpBulkM1
		p = p[32:]
	}
	for len(p) >= 8 {
		a0, a1, a2, a3 = a1, a2, a3, bits.RotateLeft64(a0^(binary.LittleEndian.Uint64(p)*fpBulkM1), 27)*fpBulkM2
		p = p[8:]
	}
	if len(p) > 0 {
		var tail uint64
		for i := len(p) - 1; i >= 0; i-- {
			tail = tail<<8 | uint64(p[i])
		}
		a0 = bits.RotateLeft64(a0^(tail*fpBulkM1), 25) * fpBulkM2
	}
	h0 := fmix64(a0 ^ bits.RotateLeft64(a1, 13) ^ bits.RotateLeft64(a2, 29) ^ bits.RotateLeft64(a3, 47))
	h1 := fmix64((a1 + a0*fpMulA) ^ (bits.RotateLeft64(a3, 17) + a2*fpMulB))
	return FP{h0, h1}
}

const (
	fpBulkM1 = 0x87c37b91114253d5
	fpBulkM2 = 0x4cf5ad432745937f
)

// bulkHash128String is bulkHash128 over a string's bytes without copying.
func bulkHash128String(s string) FP {
	if len(s) == 0 {
		return bulkHash128(nil)
	}
	return bulkHash128(unsafe.Slice(unsafe.StringData(s), len(s)))
}
