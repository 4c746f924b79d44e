package deflate

import "math/bits"

// A code table entry is the symbol's code word as the stream carries it —
// first bit lowest — above its length in the low byte.
const lenMask = 0xff

// canonical fills code with the canonical Huffman code RFC 1951 §3.2.2
// derives from lens.
func canonical(code []uint32, lens []uint8) {
	var count, next [maxCodeBits + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0 // unused symbols take no code words
	for l := 1; l <= maxCodeBits; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		code[s] = uint32(bits.Reverse16(next[l])>>(16-l))<<8 | uint32(l)
		next[l]++
	}
}

// cost returns the bits that coding freq takes with code words of lens bits.
func cost(freq []uint32, lens []uint8) (bits int) {
	for s, f := range freq {
		bits += int(f) * int(lens[s])
	}
	return bits
}
