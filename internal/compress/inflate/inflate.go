// Package inflate is a from-scratch one-shot DEFLATE (RFC 1951) decoder for
// the restore path, which holds every compressed block whole in memory: it
// decodes slice to slice, without a streaming reader's call per input byte,
// 32 KiB window or buffer grown from nil. It accepts exactly the raw streams
// compress/flate's reader accepts and returns the same bytes (the differential
// fuzz target holds it to that), except that input left over after the final
// block is corrupt, not ignored.
//
// The hot loop keeps the next symbol's table entry across its refills and
// copies a match at distance 8 or more eight bytes at a time, which lets the
// last word run up to 7 bytes past the match: into output the next symbols
// overwrite, or into dst's spare capacity past the result. A match at a
// shorter distance, or too close to the end of the buffer for a whole word,
// is copied exactly.
package inflate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// ErrCorrupt reports input that is not one complete DEFLATE stream:
// malformed, truncated, or followed by trailing bytes.
var ErrCorrupt = errors.New("inflate: corrupt input")

const (
	maxCodeLen = 15

	// Width of the first-level lookup of each code; longer codes continue in
	// a second-level subtable. The table sizes are powers of two above
	// zlib's `enough 288 10 15` = 1334 and `enough 32 8 15` = 402, the most
	// entries any complete code can need at these widths.
	litBits  = 10
	distBits = 8
	clBits   = 7 // code-length codes are at most 7 bits: no second level
	litSize  = 2048
	distSize = 512
)

// A table entry is one uint32:
//
//	bits  0-4   n: code bits this lookup consumes (a subtable link consumes
//	            the first-level width, its entries the rest of the code)
//	bits  5-7   kind
//	bits  8-11  x: extra bits that follow the code (length, distance), or the
//	            index width of the subtable (link)
//	bits 16-31  literal byte, base length, base distance, or subtable offset
const (
	kindLit  = iota << 5
	kindLen  // a match length; a distance code follows
	kindEOB  // end of block
	kindDist // a match distance
	kindSub  // link to a second-level subtable
	kindBad  // a bit pattern no code word has, or a symbol the format reserves
	kindMask = 7 << 5
)

// Symbol → entry (n still zero) of the literal/length and distance alphabets
// (the code-length alphabet's 19 symbols decode as the first 19 literals),
// and the tables of the fixed Huffman code, all filled once at start-up and
// read-only after.
var (
	litSyms  [288]uint32
	distSyms [32]uint32
	clOrder  = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	fixedLit  [litSize]uint32
	fixedDist [distSize]uint32
)

func init() {
	for s := range litSyms {
		litSyms[s] = kindLit | uint32(s)<<16
	}
	litSyms[256] = kindEOB
	base := 3
	for i := 0; i < 28; i++ { // symbols 257-284: four per extra-bit count past the first eight
		x := max(i/4-1, 0)
		litSyms[257+i] = kindLen | uint32(x)<<8 | uint32(base)<<16
		base += 1 << x
	}
	litSyms[285] = kindLen | 258<<16
	litSyms[286], litSyms[287] = kindBad, kindBad // in the fixed code, corrupt on use
	base = 1
	for i := 0; i < 30; i++ {
		x := max(i/2-1, 0)
		distSyms[i] = kindDist | uint32(x)<<8 | uint32(base)<<16
		base += 1 << x
	}
	distSyms[30], distSyms[31] = kindBad, kindBad

	var d decoder
	var lens []uint8
	for _, run := range [][2]int{{144, 8}, {112, 9}, {24, 7}, {8, 8}} { // RFC 1951 §3.2.6
		lens = append(lens, bytes.Repeat([]byte{byte(run[1])}, run[0])...)
	}
	d.build(fixedLit[:], litBits, lens, litSyms[:])
	d.build(fixedDist[:], distBits, bytes.Repeat([]byte{5}, 32), distSyms[:])
}

// decoder is the state of one Decode call plus the per-block tables, pooled
// so that concurrent callers each get their own and steady state allocates
// none.
type decoder struct {
	src []byte
	ip  int    // next byte of src to load into bb
	bb  uint64 // bit accumulator: the stream's next bit is bit 0
	nb  int    // bits of bb that count; negative once decoding has run past the end of src
	out []byte // dst[:cap(dst)], regrown on demand
	op  int    // next byte of out to write
	low int    // len(dst): bytes before it are not history a match may reach

	lit  [litSize]uint32
	dist [distSize]uint32
	cl   [1 << clBits]uint32
	lens [286 + 30]uint8     // literal/length then distance code lengths of a dynamic block
	revs [288]uint16         // build: each symbol's bit-reversed code word
	deep [1 << litBits]uint8 // build: longest code under each first-level slot
}

var pool = sync.Pool{New: func() any { return new(decoder) }}

// Decode appends the decompressed form of the raw DEFLATE stream src to dst
// and returns the extended slice. It allocates only when dst's spare capacity
// is smaller than the decoded size. Past the result it may write up to 7
// bytes of slack, inside cap(dst), and none when cap(dst) ends at the result.
// On error it returns nil and ErrCorrupt, having left dst[:len(dst)]
// unchanged. Bytes already in dst are not history: a match may only reach
// bytes this call appended. Decode never retains or returns a reference into
// src and is safe for concurrent use.
func Decode(dst, src []byte) ([]byte, error) {
	d := pool.Get().(*decoder)
	d.src, d.ip, d.bb, d.nb = src, 0, 0, 0
	d.out, d.op, d.low = dst[:cap(dst)], len(dst), len(dst)
	ok := d.stream()
	out := d.out[:d.op]
	d.src, d.out = nil, nil
	pool.Put(d)
	if !ok {
		return nil, ErrCorrupt
	}
	return out, nil
}

// stream decodes blocks up to and including the final one and reports
// whether src was exactly one well-formed stream.
func (d *decoder) stream() bool {
	for final := false; !final; {
		hdr := d.bits(3)
		final = hdr&1 != 0
		ok := false
		switch hdr >> 1 {
		case 0:
			ok = d.stored()
		case 1:
			ok = d.huffman(&fixedLit, &fixedDist)
		case 2:
			ok = d.dynamic() && d.huffman(&d.lit, &d.dist)
		}
		if !ok || d.nb < 0 {
			return false
		}
	}
	// Whole bytes left unread are trailing input; the padding bits of the
	// last byte are not.
	return d.ip-d.nb>>3 == len(d.src)
}

// refill tops bb up to at least 56 bits while input lasts: eight bytes at a
// time (the bits above nb are real but uncounted, and the next refill ORs the
// same bits over them), byte-wise in the last eight bytes of src. Callers
// consume at most 56 bits between refills, so nb is negative only after the
// input ran out, when neither branch shifts by it.
func (d *decoder) refill() {
	if d.ip+8 <= len(d.src) {
		d.bb |= binary.LittleEndian.Uint64(d.src[d.ip:]) << (uint(d.nb) & 63)
		d.ip += (63 - d.nb) >> 3
		d.nb |= 56
		return
	}
	for ; d.nb <= 56 && d.ip < len(d.src); d.ip, d.nb = d.ip+1, d.nb+8 {
		d.bb |= uint64(d.src[d.ip]) << (uint(d.nb) & 63)
	}
}

// bits consumes and returns the next n ≤ 16 bits (zeros past the end of src,
// which leaves nb negative for the caller's caller to find).
func (d *decoder) bits(n int) uint32 {
	if d.nb < n {
		d.refill()
	}
	v := uint32(d.bb) & (1<<uint(n) - 1)
	d.bb >>= uint(n)
	d.nb -= n
	return v
}

// grow returns out reallocated with room for at least need bytes past op.
func (d *decoder) grow(out []byte, op, need int) []byte {
	bigger := make([]byte, 2*len(out)+3*len(d.src)+need)
	copy(bigger, out[:op])
	return bigger
}

// stored copies one stored block, which starts at the next byte boundary.
func (d *decoder) stored() bool {
	pos := d.ip - d.nb>>3 + 4 // past LEN and NLEN
	if d.nb < 0 || pos > len(d.src) {
		return false
	}
	n := int(binary.LittleEndian.Uint16(d.src[pos-4:]))
	if n^int(binary.LittleEndian.Uint16(d.src[pos-2:])) != 0xffff || pos+n > len(d.src) {
		return false
	}
	if len(d.out)-d.op < n {
		d.out = d.grow(d.out, d.op, n)
	}
	d.op += copy(d.out[d.op:], d.src[pos:pos+n])
	d.ip, d.bb, d.nb = pos+n, 0, 0
	return true
}

// dynamic reads a dynamic block's code lengths and builds d.lit and d.dist.
func (d *decoder) dynamic() bool {
	nlit, ndist, ncl := int(d.bits(5))+257, int(d.bits(5))+1, int(d.bits(4))+4
	if nlit > 286 || ndist > 30 {
		return false
	}
	var cl [19]uint8
	for _, s := range clOrder[:ncl] {
		cl[s] = uint8(d.bits(3))
	}
	if !d.build(d.cl[:], clBits, cl[:], litSyms[:]) {
		return false
	}
	lens := d.lens[:nlit+ndist] // one run: a repeat may cross from one alphabet into the other
	for i := 0; i < len(lens); {
		if d.nb < clBits {
			d.refill()
		}
		e := d.cl[d.bb&(1<<clBits-1)]
		if e&kindMask != kindLit {
			return false
		}
		d.bits(int(e & 31))
		s, rep, n := uint8(e>>16), 0, uint8(0)
		switch s {
		default:
			lens[i] = s
			i++
			continue
		case 16:
			if i == 0 {
				return false
			}
			rep, n = 3+int(d.bits(2)), lens[i-1]
		case 17:
			rep = 3 + int(d.bits(3))
		case 18:
			rep = 11 + int(d.bits(7))
		}
		if i+rep > len(lens) {
			return false
		}
		for ; rep > 0; rep, i = rep-1, i+1 {
			lens[i] = n
		}
	}
	return d.build(d.lit[:], litBits, lens[:nlit], litSyms[:]) &&
		d.build(d.dist[:], distBits, lens[nlit:], distSyms[:])
}

// build fills t, whose first level is width bits wide, with the canonical
// Huffman code in which symbol s has lens[s] bits and decodes to syms[s],
// indexed by the code word as it arrives: bit-reversed. It reports false
// unless the code is one compress/flate accepts: complete, empty (every
// lookup is then kindBad) or a single one-bit code word (its sibling is).
func (d *decoder) build(t []uint32, width int, lens []uint8, syms []uint32) bool {
	var count, next [maxCodeLen + 1]int
	for _, n := range lens {
		count[n]++
	}
	code, longest := 0, 0
	for n := 1; n <= maxCodeLen; n++ {
		code <<= 1
		next[n] = code
		if code += count[n]; count[n] != 0 {
			longest = n
		}
	}
	if code != 1<<maxCodeLen { // Kraft sum ≠ 1
		if longest > 1 || count[1] > 1 {
			return false
		}
		for i := range t[:1<<width] {
			t[i] = kindBad | 1
		}
	}

	mask := uint16(1)<<width - 1
	d.deep = [1 << litBits]uint8{}
	for s, n := range lens {
		if n == 0 {
			continue
		}
		r := bits.Reverse16(uint16(next[n])) >> (16 - n)
		next[n]++
		d.revs[s] = r
		if int(n) > width && n > d.deep[r&mask] {
			d.deep[r&mask] = n
		}
	}
	free := 1 << width
	for p, n := range d.deep[:free] {
		if n == 0 {
			continue
		}
		w := int(n) - width
		if free+1<<w > len(t) {
			return false // unreachable for a complete code; see litSize
		}
		t[p] = kindSub | uint32(width) | uint32(w)<<8 | uint32(free)<<16
		free += 1 << w
	}
	for s, n := range lens {
		if n == 0 {
			continue
		}
		r, n := int(d.revs[s]), int(n)
		if n <= width {
			for j := r; j < 1<<width; j += 1 << n {
				t[j] = syms[s] | uint32(n)
			}
			continue
		}
		link := t[r&int(mask)]
		sub := t[link>>16:][:1<<(link>>8&15)]
		for j := r >> width; j < len(sub); j += 1 << (n - width) {
			sub[j] = syms[s] | uint32(n-width)
		}
	}
	return true
}

// huffman decodes the symbols of one compressed block up to its end-of-block.
func (d *decoder) huffman(lit *[litSize]uint32, dist *[distSize]uint32) bool {
	// e is the first-level entry of the next symbol, read as soon as the
	// symbols before it are consumed (a match's before its copy, so that the
	// load overlaps the stores) and kept across the refill at the top of the
	// loop: after an eight-byte refill all 64 bits of bb are input, and no
	// path consumes more than 50 of them before it reads the next 10. The
	// byte-wise tail promises no bit past nb and reads e again.
	d.refill()
	src, out, low := d.src, d.out, d.low
	ip, bb, nb, op := d.ip, d.bb, d.nb, d.op
	e := lit[bb&(1<<litBits-1)]
	for {
		// One refill covers a whole length + distance pair:
		// 15+5+15+13 = 48 bits.
		if ip+8 <= len(src) {
			bb |= binary.LittleEndian.Uint64(src[ip:]) << (uint(nb) & 63)
			ip += (63 - nb) >> 3
			nb |= 56
		} else {
			if nb < 0 {
				return false // ran past the end of src
			}
			for ; nb <= 56 && ip < len(src); ip, nb = ip+1, nb+8 {
				bb |= uint64(src[ip]) << (uint(nb) & 63)
			}
			e = lit[bb&(1<<litBits-1)]
		}
		if e&kindMask == kindLit && op+4 < len(out) {
			// A run of up to five first-level literals, at most 50 bits,
			// needs no second refill.
			for run := 5; run > 0 && e&kindMask == kindLit; run-- {
				out[op] = byte(e >> 16)
				bb >>= e & 31
				nb -= int(e & 31)
				op++
				e = lit[bb&(1<<litBits-1)]
			}
			continue
		}
		if e&kindMask == kindSub {
			bb >>= litBits
			nb -= litBits
			e = lit[(e>>16+uint32(bb)&(1<<(e>>8&15)-1))&(litSize-1)]
		}
		bb >>= e & 31
		nb -= int(e & 31)
		switch e & kindMask {
		case kindLit:
			if op == len(out) {
				out = d.grow(out, op, 1)
			}
			out[op] = byte(e >> 16)
			op++
			e = lit[bb&(1<<litBits-1)]
			continue
		case kindLen:
		case kindEOB:
			d.out, d.ip, d.bb, d.nb, d.op = out, ip, bb, nb, op
			return true
		default:
			return false
		}
		x := e >> 8 & 15
		length := int(e>>16) + int(uint32(bb)&(1<<x-1))
		bb >>= x
		nb -= int(x)

		e = dist[bb&(1<<distBits-1)]
		if e&kindMask == kindSub {
			bb >>= distBits
			nb -= distBits
			e = dist[(e>>16+uint32(bb)&(1<<(e>>8&15)-1))&(distSize-1)]
		}
		if e&kindMask != kindDist {
			return false
		}
		bb >>= e & 31
		nb -= int(e & 31)
		x = e >> 8 & 15
		from := op - int(e>>16) - int(uint32(bb)&(1<<x-1))
		bb >>= x
		nb -= int(x)
		if from < low {
			return false // reaches before the first byte this call appended
		}
		if len(out)-op < length {
			out = d.grow(out, op, length)
		}
		e = lit[bb&(1<<litBits-1)]
		switch {
		case op-from >= 8 && op+length+7 <= len(out):
			// By words, without a memmove call: each word is read before
			// any of it is written, and the last may write up to 7 bytes
			// past the match, into output the next symbols overwrite.
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(out[op+i:], binary.LittleEndian.Uint64(out[from+i:]))
			}
		case op-from >= length:
			copy(out[op:op+length], out[from:])
		default:
			for i := 0; i < length; i++ { // overlapping: the copy feeds itself
				out[op+i] = out[from+i]
			}
		}
		op += length
	}
}
