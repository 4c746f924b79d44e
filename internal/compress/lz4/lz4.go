// Package lz4 implements the LZ4 block format from scratch: a byte-oriented
// LZ77 with 4-byte minimum matches, a 64 kB offset window, and token-encoded
// literal/match lengths. It is the speed-over-ratio end of the paper's
// compression-study spectrum (§5.1.2).
//
// The encoder is the "fast" variant: a hash table with a single probe per
// position, matching the lz4(1) default level the paper measures.
package lz4

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ndpcr/internal/compress/lzmatch"
)

const (
	minMatch = 4
	// The last match must start at least this many bytes before the end of
	// the block, and the final minEndLiterals bytes are always literals.
	// These are the format's documented parsing-restriction constants.
	mfLimit        = 12
	minEndLiterals = 5

	hashLog   = 16
	hashBytes = 5 // as the reference encoder on 64-bit hosts: a four-byte match saves one byte
	maxOffset = 65535
	// A stride over data that does not match also thins what the table will
	// hold of it, and a block repeats at up to 64 KiB: see lzmatch.Step.
	maxStep = 16
)

// ErrCorrupt reports malformed compressed input.
var ErrCorrupt = errors.New("lz4: corrupt input")

// CompressBound returns the maximum compressed size for an input of n bytes
// (the format's worst-case expansion: n + n/255 + 16).
func CompressBound(n int) int { return n + n/255 + 16 }

// table maps the hash of four bytes to where they last began; a slot never
// written reads as position 0, a candidate like any other. 256 KiB is too
// much to zero on a goroutine stack every call.
type table [1 << hashLog]int32

var tables = sync.Pool{New: func() any { return new(table) }}

// Compress appends the LZ4-block-compressed form of src to dst.
func Compress(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return append(dst, 0), nil // single empty-literal token
	}
	dst = slices.Grow(dst, CompressBound(len(src)))
	t := tables.Get().(*table)
	*t = table{}

	anchor := 0 // start of pending literals
	pos := 1    // nothing precedes byte 0, and every unwritten slot holds it
	limit := len(src) - mfLimit
	matchEnd := len(src) - minEndLiterals // matches stop before the final literals

	for pos < limit {
		// Find a match: single hash probe.
		cur := lzmatch.Load64(src, pos)
		h := lzmatch.Hash(cur, hashBytes, hashLog)
		cand := int(t[h])
		t[h] = int32(pos)
		// One branch for "four bytes match at pos−cand ≤ maxOffset".
		x := lzmatch.Load64(src, cand) ^ cur
		if uint32(x)|uint32(uint(pos-cand)>>16) != 0 {
			pos += lzmatch.Step(pos-anchor, maxStep)
			continue
		}
		// Extend the match backwards over pending literals.
		for pos > anchor && cand > 0 && src[pos-1] == src[cand-1] {
			pos--
			cand--
		}
		matchLen := minMatch + lzmatch.MatchLen(src[pos+minMatch:matchEnd], src[cand+minMatch:])

		dst = emitSequence(dst, src[anchor:pos], pos-cand, matchLen)
		pos += matchLen
		anchor = pos
		// Seed the table inside the match region to improve the next probe.
		if pos-2 < limit {
			t[lzmatch.Hash(lzmatch.Load64(src, pos-2), hashBytes, hashLog)] = int32(pos - 2)
		}
	}
	tables.Put(t)
	// Final literals-only sequence.
	return emitSequence(dst, src[anchor:], 0, 0), nil
}

// emitSequence writes one token + literals (+ match if matchLen >= minMatch).
func emitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	ml := 0
	if matchLen >= minMatch {
		ml = matchLen - minMatch
		if ml >= 15 {
			token |= 15
		} else {
			token |= byte(ml)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, literals...)
	if matchLen >= minMatch {
		dst = append(dst, byte(offset), byte(offset>>8))
		if ml >= 15 {
			dst = appendLenExt(dst, ml-15)
		}
	}
	return dst
}

func appendLenExt(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// Decompress appends the decoded form of an LZ4 block to dst.
func Decompress(dst, src []byte) ([]byte, error) {
	base := len(dst)
	i := 0
	for i < len(src) {
		token := src[i]
		i++
		// Literals.
		litLen := int(token >> 4)
		if litLen == 15 {
			n, ni, err := readLenExt(src, i)
			if err != nil {
				return nil, err
			}
			litLen += n
			i = ni
		}
		if litLen > len(src)-i {
			return nil, fmt.Errorf("%w: literal run of %d exceeds input", ErrCorrupt, litLen)
		}
		dst = append(dst, src[i:i+litLen]...)
		i += litLen
		if i == len(src) {
			break // final sequence has no match
		}
		// Match.
		if i+2 > len(src) {
			return nil, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(dst)-base {
			return nil, fmt.Errorf("%w: offset %d out of window", ErrCorrupt, offset)
		}
		matchLen := int(token&15) + minMatch
		if token&15 == 15 {
			n, ni, err := readLenExt(src, i)
			if err != nil {
				return nil, err
			}
			matchLen += n
			i = ni
		}
		// Overlapping copy: must go byte-by-byte when offset < matchLen.
		start := len(dst) - offset
		for k := 0; k < matchLen; k++ {
			dst = append(dst, dst[start+k])
		}
	}
	return dst, nil
}

func readLenExt(src []byte, i int) (n, next int, err error) {
	for {
		if i >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length", ErrCorrupt)
		}
		b := src[i]
		i++
		n += int(b)
		if b != 255 {
			return n, i, nil
		}
	}
}
