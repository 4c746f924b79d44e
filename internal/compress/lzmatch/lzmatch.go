// Package lzmatch holds what the LZ77 match finders of this
// repo (deflate, lz4) have in common: the hash, the match extension and the
// rule by which a search speeds up over data that does not match.
package lzmatch

import (
	"encoding/binary"
	"math/bits"
)

// Load64 reads the little-endian word at b[i:].
func Load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// Hash maps the low n ≤ 8 bytes of v to a table index of the given width.
func Hash(v uint64, n, tableBits uint) uint32 {
	return uint32(v << (64 - 8*n) * 0x9e3779b185ebca87 >> (64 - tableBits))
}

// MatchLen returns the length of the longest common prefix of a and b,
// compared eight bytes at a time. b must be at least as long as a.
func MatchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := Load64(a, n) ^ Load64(b, n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < len(a) && a[n] == b[n]; n++ {
	}
	return n
}

// Step is how far a search advances after a failed probe, run bytes after its
// last match: one byte at first, one more for every 32 bytes that found
// nothing — compress/flate's level-1 rule (skip += skip>>5) in closed form —
// up to limit. The limit is what flate lacks (it restarts every 64 KiB
// instead): without one, a stride grown over an incompressible region steps
// over the first matches of the next, and thins the table so that a later
// copy of this region finds few of them.
func Step(run, limit int) int { return 1 + min(run>>5, limit) }
