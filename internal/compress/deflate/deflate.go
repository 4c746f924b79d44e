// Package deflate is a from-scratch one-shot DEFLATE (RFC 1951) encoder of
// the gzip(1) class for the drain, which holds every block it compresses
// whole in memory: it encodes slice to slice, without a streaming writer's
// copy of the input into a window, per-literal tokens or second pass to count
// them. Its output is a standard raw stream: package inflate and
// compress/flate's reader both decode it to the input (the differential fuzz
// target holds it to that).
package deflate

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync"

	"ndpcr/internal/compress/huffman"
	"ndpcr/internal/compress/lzmatch"
)

const (
	tableBits = 14 // 64 KiB of hash table, as compress/flate's level 1
	hashLen   = 5  // bytes a position is hashed by; a probe compares four, the format allows 3
	maxStep   = 64 // see lzmatch.Step
	maxMatch  = 258
	maxDist   = 32768

	// A batch of sequences becomes one block. It closes at the first match
	// past batchSyms symbols or, where little matches, after batchBytes of
	// input.
	maxSeqs    = 1 << 14
	batchSyms  = 32 << 10
	batchBytes = 128 << 10
	// Positions are int32 in the hash table: longer input is encoded in
	// pieces, and no match crosses from one into the next.
	maxPiece = 1 << 30

	numLit      = 286 // literal/length symbols in use
	numDist     = 30
	numCL       = 19
	eob         = 256
	maxCodeBits = 15
	maxLitBits  = 14 // of a literal/length code word: four fit in one store of the accumulator
	maxCLBits   = 7
)

// RFC 1951 §3.2.5, filled at start-up: match length − 3 → length symbol −
// 257, and per symbol its extra bits and the first length − 3 it covers.
var (
	lenSym    [256]uint8
	lenBase   [29]uint8
	lenExtra  [29]uint8
	distExtra [numDist]uint8
	clOrder   = [numCL]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	fixedLit     [numLit]uint32
	fixedDist    [numDist]uint32
	fixedLenWord [256]uint32
	fixedLitLens [288]uint8
)

func init() {
	base := 0
	for s := 0; s < 28; s++ { // four symbols per extra-bit count past the first eight
		x := max(s/4-1, 0)
		lenBase[s], lenExtra[s] = uint8(base), uint8(x)
		for ; base < int(lenBase[s])+1<<x; base++ {
			lenSym[base] = uint8(s)
		}
	}
	lenSym[255], lenBase[28] = 28, 255 // 258 has a symbol of its own
	for s := range distExtra {
		distExtra[s] = uint8(max(s/2-1, 0))
	}

	for s := range fixedLitLens { // RFC 1951 §3.2.6
		switch {
		case s < 144:
			fixedLitLens[s] = 8
		case s < 256:
			fixedLitLens[s] = 9
		case s < 280:
			fixedLitLens[s] = 7
		default:
			fixedLitLens[s] = 8
		}
	}
	var lit [288]uint32 // the two symbols past numLit take code words too
	canonical(lit[:], fixedLitLens[:])
	copy(fixedLit[:], lit[:])
	canonical(fixedDist[:], bytes.Repeat([]byte{5}, numDist))
	foldDist(&fixedDist)
	foldLengths(&fixedLenWord, &fixedLit)
}

// foldLengths fills word, indexed by match length − 3, with all the bits a
// match of that length puts on the stream — its symbol's code word, then
// its extra bits — above their count in the low five bits.
func foldLengths(word *[256]uint32, lit *[numLit]uint32) {
	for l := range word {
		s := lenSym[l]
		c := lit[257+int(s)]
		n := c & lenMask
		word[l] = (c>>8|uint32(l-int(lenBase[s]))<<n)<<8 | (n + uint32(lenExtra[s]))
	}
}

// foldDist adds to each distance symbol's entry, in bits 8-11 below the code
// word now at bit 12, the count of extra bits that follow it.
func foldDist(dist *[numDist]uint32) {
	for s, c := range dist {
		dist[s] = c>>8<<12 | uint32(distExtra[s])<<8 | c&lenMask
	}
}

// distSym returns the distance symbol of distance d+1.
func distSym(d uint32) uint32 {
	if d < 2 {
		return d
	}
	top := uint32(bits.Len32(d)) - 1
	return 2*top + d>>(top-1)&1
}

// A sequence is one match and the literals before it:
//
//	bits  0-14  distance − 1
//	bits 16-23  length − 3
//	bits 24-28  distance symbol
//	bits 32-63  count of literals that precede the match; their bytes are
//	            read from src again when the block is written
type sequence = uint64

// encoder is the state of one Encode call, pooled so that concurrent callers
// each get their own and steady state allocates only dst's growth.
type encoder struct {
	table [1 << tableBits]int32 // hash of five bytes → where they last began
	seqs  [maxSeqs]sequence
	nseq  int
	nlit  int // literals counted into litFreq for the open batch

	// Histograms of the open batch, kept while matching.
	litFreq  [numLit]uint32
	distFreq [numDist]uint32

	// The dynamic code of the batch being flushed.
	huff    huffman.Builder
	lens    [numLit + numDist]uint8 // the literal/length code's, then from hlit the distance code's
	lit     [numLit]uint32
	dist    [numDist]uint32
	lenWord [256]uint32
	clFreq  [numCL]uint32
	clLens  [numCL]uint8
	cl      [numCL]uint32
	rle     [numLit + numDist]uint16 // code-length symbols: symbol | extra<<5
	nrle    int
	hlit    int
	hdist   int
	hclen   int

	out []byte // dst[:cap(dst)], regrown per batch
	op  int    // next byte of out to write
	acc uint64 // bits not yet in out, first bit lowest
	nb  uint   // how many; below 8 between writes
}

var pool = sync.Pool{New: func() any { return new(encoder) }}

// Encode appends the raw DEFLATE stream of src to dst and returns the
// extended slice. It allocates only when dst's spare capacity is too small
// for the stream (plus eight bytes of slack: it may write that far past the
// result into dst's spare capacity). Encode never retains a reference to
// src and is safe for concurrent use.
func Encode(dst, src []byte) []byte { return encodePieces(dst, src, maxPiece) }

func encodePieces(dst, src []byte, piece int) []byte {
	e := pool.Get().(*encoder)
	e.out, e.op, e.acc, e.nb = dst[:cap(dst)], len(dst), 0, 0
	for ; len(src) > piece; src = src[piece:] {
		e.encode(src[:piece], false)
	}
	e.encode(src, true)
	out := e.finish()
	pool.Put(e)
	return out
}

// finish writes out the last bits and gives up the stream.
func (e *encoder) finish() []byte {
	binary.LittleEndian.PutUint64(e.out[e.op:], e.acc) // reserve left room
	out := e.out[:e.op+int(e.nb+7)>>3]
	e.out = nil
	return out
}

// encode finds the matches of src and flushes them a batch at a time; the
// last batch closes the stream when final.
func (e *encoder) encode(src []byte, final bool) {
	e.table = [1 << tableBits]int32{}
	var (
		from   = 0            // first byte of the open batch
		anchor = 0            // first byte no sequence covers yet
		pos    = 1            // next byte to probe; see find
		limit  = len(src) - 7 // last position find can probe from
	)
	for {
		stop := min(limit, from+batchBytes)
		for pos <= stop {
			p, cand, n := e.find(src, pos, stop, anchor)
			if pos = p; n == 0 {
				break
			}
			d := uint32(pos - cand - 1)
			ds := distSym(d)
			// A match longer than maxMatch continues at the same distance
			// without a new probe; the piece before the last gives up bytes
			// when the last would fall under the format's minimum of three.
			for run := pos - anchor; n > 0; run = 0 {
				if e.nseq == maxSeqs {
					e.flush(src, from, pos-run, pos-run, false)
					from = pos - run
				}
				for _, b := range src[pos-run : pos] { // counted into the batch that holds them
					e.litFreq[b]++
				}
				e.nlit += run
				l := min(n, maxMatch)
				if rest := n - l; rest > 0 && rest < 3 {
					l -= 3 - rest
				}
				e.seqs[e.nseq] = sequence(run)<<32 | sequence(ds)<<24 | sequence(l-3)<<16 | sequence(d)
				e.nseq++
				e.litFreq[257+int(lenSym[l-3])]++
				e.distFreq[ds]++
				pos += l
				n -= l
			}
			anchor = pos
			if e.nseq+e.nlit >= batchSyms {
				break
			}
		}
		if pos > limit {
			break
		}
		e.flush(src, from, anchor, pos, false)
		from, anchor = pos, pos
	}
	e.flush(src, from, anchor, len(src), final)
}

// find searches src from pos to stop for the next match and returns it: its
// position p, the earlier position cand it repeats and its length n. With no
// match in reach, n is 0 and p is where the search goes on.
//
// One load of the eight bytes at pos−1 serves a probe at each of pos, pos+1
// and pos+2, of the five bytes that start there, and enters pos−1 in the
// table too: after a match, that is the position its last byte began. The
// three table reads and candidate loads do not wait on one another; each
// probe asks in one branch whether four bytes match at 1 ≤ distance ≤
// maxDist (an empty slot reads as position 0, a candidate like any other).
// Past a load that found nothing the search skips as lzmatch.Step does, at
// twice its rate and up to three times its limit: every load tests three
// positions, so at the limit a byte is probed as often as by one probe a
// step.
func (e *encoder) find(src []byte, pos, stop, anchor int) (p, cand, n int) {
	t := &e.table
	for ; pos <= stop; pos += 2 + lzmatch.Step(2*(pos-anchor), 3*maxStep) {
		cur := lzmatch.Load64(src, pos-1)
		hp := lzmatch.Hash(cur, hashLen, tableBits)
		h0 := lzmatch.Hash(cur>>8, hashLen, tableBits)
		h1 := lzmatch.Hash(cur>>16, hashLen, tableBits)
		h2 := lzmatch.Hash(cur>>24, hashLen, tableBits)
		t[hp] = int32(pos - 1)
		c0, c1, c2 := int(t[h0]), int(t[h1]), int(t[h2])
		t[h0], t[h1], t[h2] = int32(pos), int32(pos+1), int32(pos+2)
		switch {
		case uint32(lzmatch.Load64(src, c0)^cur>>8)|uint32(uint(pos-c0-1)>>15) == 0:
			p, cand = pos, c0
		case uint32(lzmatch.Load64(src, c1)^cur>>16)|uint32(uint(pos-c1)>>15) == 0:
			p, cand = pos+1, c1
		case uint32(lzmatch.Load64(src, c2)^cur>>24)|uint32(uint(pos+1-c2)>>15) == 0:
			p, cand = pos+2, c2
		default:
			continue
		}
		// Most matches end inside the next eight bytes: one compare of
		// words that are in cache, not a call of MatchLen.
		if p+8 > len(src) {
			return p, cand, lzmatch.MatchLen(src[p:], src[cand:])
		}
		if x := lzmatch.Load64(src, p) ^ lzmatch.Load64(src, cand); x != 0 {
			return p, cand, bits.TrailingZeros64(x) >> 3
		}
		return p, cand, 8 + lzmatch.MatchLen(src[p+8:], src[cand+8:])
	}
	return pos, 0, 0
}

// flush writes the open batch — the sequences, which cover src[from:anchor],
// and the literals src[anchor:to] after them — as whichever of a dynamic, a
// fixed and stored blocks is smallest, and opens the next.
func (e *encoder) flush(src []byte, from, anchor, to int, final bool) {
	for _, b := range src[anchor:to] {
		e.litFreq[b]++
	}
	e.litFreq[eob] = 1
	extra := 0
	for s, x := range lenExtra {
		extra += int(e.litFreq[257+s]) * int(x)
	}
	for s, x := range distExtra {
		extra += int(e.distFreq[s]) * int(x)
	}
	fixed := 3 + extra + 5*e.nseq + cost(e.litFreq[:], fixedLitLens[:])
	dynamic := 3 + extra + e.buildDynamic()
	pad := int(-(e.nb + 3) & 7) // a stored block's LEN starts on a byte boundary
	stored := 3 + pad + 8*(to-from) + 32 + 40*((to-from-1)/0xffff)

	hdr := uint64(0)
	if final {
		hdr = 1
	}
	switch {
	case stored <= min(fixed, dynamic):
		e.reserve((int(e.nb) + stored) >> 3)
		for {
			n := min(to-from, 0xffff)
			last := hdr
			if n < to-from {
				last = 0
			}
			e.put(last, 3)
			e.put(0, -e.nb&7)
			e.put(uint64(n)|uint64(^uint16(n))<<16, 32)
			e.sync()
			e.op += copy(e.out[e.op:], src[from:from+n])
			if from += n; from == to {
				break
			}
		}
	case fixed <= dynamic:
		e.reserve((int(e.nb) + fixed) >> 3)
		e.put(hdr|1<<1, 3)
		e.lit, e.dist, e.lenWord = fixedLit, fixedDist, fixedLenWord
		e.write(src, from, to)
	default:
		e.reserve((int(e.nb) + dynamic) >> 3)
		e.put(hdr|2<<1, 3)
		e.writeHeader()
		foldDist(&e.dist)
		foldLengths(&e.lenWord, &e.lit)
		e.write(src, from, to)
	}
	e.nseq, e.nlit = 0, 0
	e.litFreq = [numLit]uint32{}
	e.distFreq = [numDist]uint32{}
}

// buildDynamic builds the batch's own codes from its histograms, and the
// code-length code that describes them, and returns the size in bits of the
// block they give, less its three-bit header and the matches' extra bits.
func (e *encoder) buildDynamic() int {
	// The lengths of both codes, the unused tail of each cut off, are sent
	// as one sequence: the distance code's start where the literal/length
	// code's used part ends.
	litLens := e.lens[:numLit]
	e.huff.Lengths(litLens, e.litFreq[:], maxLitBits)
	canonical(e.lit[:], litLens)
	size := cost(e.litFreq[:], litLens)
	for e.hlit = numLit; litLens[e.hlit-1] == 0; e.hlit-- { // ends at eob
	}
	distLens := e.lens[e.hlit:][:numDist]
	e.huff.Lengths(distLens, e.distFreq[:], maxCodeBits)
	if e.nseq == 0 {
		distLens[0] = 1 // zlib before 1.2.1.1 cannot read an empty distance code
	}
	canonical(e.dist[:], distLens)
	size += cost(e.distFreq[:], distLens)
	for e.hdist = numDist; e.hdist > 1 && distLens[e.hdist-1] == 0; e.hdist-- {
	}
	// Run-length coded; a run may cross from one code into the other.
	lens := e.lens[:e.hlit+e.hdist]
	e.clFreq = [numCL]uint32{}
	e.nrle = 0
	emit := func(sym, extra int) {
		e.rle[e.nrle] = uint16(sym | extra<<5)
		e.nrle++
		e.clFreq[sym]++
	}
	for i := 0; i < len(lens); {
		v, run := int(lens[i]), 1
		for i++; i < len(lens) && int(lens[i]) == v; i++ {
			run++
		}
		if v == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(v, 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(v, 0)
		}
	}
	e.huff.Lengths(e.clLens[:], e.clFreq[:], maxCLBits)
	canonical(e.cl[:], e.clLens[:])
	size += cost(e.clFreq[:], e.clLens[:])
	for e.hclen = numCL; e.hclen > 4 && e.clLens[clOrder[e.hclen-1]] == 0; e.hclen-- {
	}
	return size + 5 + 5 + 4 + 3*e.hclen + 2*int(e.clFreq[16]) + 3*int(e.clFreq[17]) + 7*int(e.clFreq[18])
}

// writeHeader writes what buildDynamic built: the counts, the code-length
// code, and the two codes' lengths in it.
func (e *encoder) writeHeader() {
	e.put(uint64(e.hlit-257)|uint64(e.hdist-1)<<5|uint64(e.hclen-4)<<10, 14)
	for _, s := range clOrder[:e.hclen] {
		e.put(uint64(e.clLens[s]), 3)
	}
	for _, t := range e.rle[:e.nrle] {
		c := e.cl[t&31]
		e.put(uint64(c>>8), uint(c&lenMask))
		switch t & 31 {
		case 16:
			e.put(uint64(t>>5), 2)
		case 17:
			e.put(uint64(t>>5), 3)
		case 18:
			e.put(uint64(t>>5), 7)
		}
	}
}

// literals codes the literals src[i:end] four at a time into out at op,
// leaving the last end−i mod 4 to its caller.
func (e *encoder) literals(src []byte, i, end, op int, acc uint64, nb uint32) (int, int, uint64, uint32) {
	out := e.out
	for ; i+4 <= end; i += 4 {
		p := src[i : i+4 : i+4]
		c0, c1, c2, c3 := e.lit[p[0]], e.lit[p[1]], e.lit[p[2]], e.lit[p[3]]
		acc |= uint64(c0>>8) << (nb & 63)
		nb += c0
		acc |= uint64(c1>>8) << (nb & 63)
		nb += c1
		acc |= uint64(c2>>8) << (nb & 63)
		nb += c2
		acc |= uint64(c3>>8) << (nb & 63)
		nb += c3
		binary.LittleEndian.PutUint64(out[op:], acc)
		op += int(nb & 0xff >> 3)
		acc >>= nb & 56
		nb &= 7
	}
	return i, op, acc, nb
}

// reserve makes room in out for n more bytes and a whole accumulator.
func (e *encoder) reserve(n int) {
	if need := e.op + n + 16; need > len(e.out) {
		bigger := make([]byte, max(need, 2*len(e.out)))
		copy(bigger, e.out[:e.op])
		e.out = bigger
	}
}

// put appends the low n ≤ 32 bits of v, which has none above them.
func (e *encoder) put(v uint64, n uint) {
	e.acc |= v << (e.nb & 63)
	e.nb += n
	if e.nb >= 32 {
		e.sync()
	}
}

// sync moves the whole bytes of the accumulator to out.
func (e *encoder) sync() {
	binary.LittleEndian.PutUint64(e.out[e.op:], e.acc)
	e.op += int(e.nb >> 3)
	e.acc >>= e.nb &^ 7 & 63
	e.nb &= 7
}

// write codes the open batch with e's tables (the encoder's own, not three
// more pointers for the loop to hold in registers), up to and including the
// end-of-block symbol. reserve has made room for all of it.
func (e *encoder) write(src []byte, from, to int) {
	e.sync()
	out, op, acc := e.out, e.op, e.acc
	// The bit count is the low byte of nb: adding a whole table entry adds
	// its length there and rubbish above, which the shifts do not look at.
	// Every store of the accumulator leaves at most 7 bits in it: four
	// literals (4 × 14 bits), or a match whole (19 + 15 + 13), fit on top.
	nb := uint32(e.nb)
	i := from
	for _, s := range e.seqs[:e.nseq] {
		end := i + int(s>>32)
		if i+4 <= end { // a long run: rare where matches are dense
			i, op, acc, nb = e.literals(src, i, end, op, acc, nb)
		}
		// The match makes three bytes readable: no branch per literal.
		p, r := src[i:i+3:i+3], int32(end-i)
		c0, c1, c2 := e.lit[p[0]]&uint32(-r>>31), e.lit[p[1]]&uint32((1-r)>>31), e.lit[p[2]]&uint32((2-r)>>31)
		acc |= uint64(c0>>8) << (nb & 63)
		nb += c0
		acc |= uint64(c1>>8) << (nb & 63)
		nb += c1
		acc |= uint64(c2>>8) << (nb & 63)
		nb += c2
		binary.LittleEndian.PutUint64(out[op:], acc)
		op += int(nb & 0xff >> 3)
		acc >>= nb & 56
		nb &= 7
		w := e.lenWord[uint8(s>>16)]
		acc |= uint64(w>>8) << (nb & 63)
		nb += w
		c := e.dist[s>>24&31]
		acc |= uint64(c>>12) << (nb & 63)
		nb += c
		acc |= (s & (1<<(c>>8&15) - 1)) << (nb & 63)
		nb += c >> 8 & 15
		binary.LittleEndian.PutUint64(out[op:], acc)
		op += int(nb & 0xff >> 3)
		acc >>= nb & 56
		nb &= 7
		i = end + int(uint8(s>>16)) + 3
	}
	// The literals after the last match.
	i, op, acc, nb = e.literals(src, i, to, op, acc, nb)
	for ; i < to; i++ {
		c := e.lit[src[i]]
		acc |= uint64(c>>8) << (nb & 63)
		nb += c
	}
	// At most 7 + 3 × 14 bits are pending: the end-of-block symbol fits.
	c := e.lit[eob]
	e.op, e.acc, e.nb = op, acc|uint64(c>>8)<<(nb&63), uint((nb+c)&0xff)
	e.sync()
}
