package bwz

import (
	"sort"

	"ndpcr/internal/compress/huffman"
)

// maxCodeLen bounds Huffman code lengths so the table header stays compact
// (5 bits per length) and the decoder's canonical walk stays in uint32.
const maxCodeLen = 20

// buildCodeLengths returns a length-limited Huffman code length for each
// symbol with a non-zero count (0 for absent symbols).
func buildCodeLengths(counts []int) []uint8 {
	freq := make([]uint32, len(counts))
	for s, c := range counts {
		freq[s] = uint32(c) // a block is under a megabyte
	}
	lengths := make([]uint8, len(counts))
	new(huffman.Builder).Lengths(lengths, freq, maxCodeLen)
	return lengths
}

// canonicalCodes assigns canonical code values for the given lengths:
// shorter codes first, ties broken by symbol order. Returned codes are
// valid for symbols with non-zero lengths.
func canonicalCodes(lengths []uint8) []uint32 {
	codes := make([]uint32, len(lengths))
	type sl struct {
		sym int
		len uint8
	}
	order := make([]sl, 0, len(lengths))
	for sym, l := range lengths {
		if l > 0 {
			order = append(order, sl{sym, l})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].len != order[j].len {
			return order[i].len < order[j].len
		}
		return order[i].sym < order[j].sym
	})
	code := uint32(0)
	prevLen := uint8(0)
	for _, e := range order {
		code <<= (e.len - prevLen)
		codes[e.sym] = code
		code++
		prevLen = e.len
	}
	return codes
}

// huffDecoder decodes canonical codes with the firstCode/offset method.
type huffDecoder struct {
	// firstCode[l] is the canonical code value of the first code of
	// length l; index[l] is the position in syms of that first code.
	firstCode [maxCodeLen + 2]uint32
	index     [maxCodeLen + 2]int
	countAt   [maxCodeLen + 2]int
	syms      []uint16
}

// newHuffDecoder builds a decoder from code lengths. It returns false for
// inconsistent (non-Kraft) length sets.
func newHuffDecoder(lengths []uint8) (*huffDecoder, bool) {
	d := &huffDecoder{}
	for _, l := range lengths {
		if l > maxCodeLen {
			return nil, false
		}
		if l > 0 {
			d.countAt[l]++
		}
	}
	// Kraft check and firstCode computation.
	code := uint32(0)
	total := 0
	for l := 1; l <= maxCodeLen; l++ {
		code <<= 1
		d.firstCode[l] = code
		d.index[l] = total
		code += uint32(d.countAt[l])
		total += d.countAt[l]
		if code > 1<<uint(l) {
			return nil, false // over-subscribed
		}
	}
	if total == 0 {
		return nil, false
	}
	// Symbols in canonical order.
	d.syms = make([]uint16, total)
	next := make([]int, maxCodeLen+1)
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = d.index[l]
	}
	for sym, l := range lengths {
		if l > 0 {
			d.syms[next[l]] = uint16(sym)
			next[l]++
		}
	}
	return d, true
}

// decode reads one symbol from r. It returns false on malformed input.
func (d *huffDecoder) decode(r *bitReader) (uint16, bool) {
	code := uint32(0)
	for l := 1; l <= maxCodeLen; l++ {
		code = code<<1 | r.readBits(1)
		if r.err() {
			return 0, false
		}
		if d.countAt[l] > 0 && code-d.firstCode[l] < uint32(d.countAt[l]) {
			return d.syms[d.index[l]+int(code-d.firstCode[l])], true
		}
	}
	return 0, false
}
