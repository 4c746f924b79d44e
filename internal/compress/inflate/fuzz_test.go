package inflate

import (
	"bytes"
	"testing"
)

// seedData is small enough that every seed stream stays under 4 KiB (Go's
// minimiser stalls on large seeds) and mixed enough that flate.Writer emits
// matches, literals and, for the noise, a stored block.
func seedData() []byte {
	return append(append(matchHeavy(1200), benchBlock(1600)...), noise(400)...)
}

// FuzzDecodeAgainstFlate feeds arbitrary bytes to Decode and to
// compress/flate's reader: they must agree on accept or reject — except that
// Decode refuses trailing bytes, and must then accept the stream without
// them — and byte for byte on every accepted output. Decode must never panic.
func FuzzDecodeAgainstFlate(f *testing.F) {
	for _, level := range levels { // HuffmanOnly, stored, and dynamic blocks
		f.Add(deflate(f, level, seedData()))
		f.Add(deflate(f, level, nil))
	}
	fixed := deflate(f, 1, []byte("fixed fixed fixed Huffman block")) // short input: one fixed block
	for _, seed := range [][]byte{
		fixed,
		append(append([]byte(nil), fixed...), fixed...), // trailing stream
		fixed[:len(fixed)-1],                            // truncated
		fifteenBitStream(),                              // second-level subtables
		// length 258 at distance 1; a reserved distance symbol
		new(stream).put(1, 1).put(1, 2).fixed('a').fixed(285).code(0, 5).fixed(256).buf,
		new(stream).put(1, 1).put(1, 2).fixed('a').fixed(257).code(30, 5).fixed(256).buf,
		// a single one-bit code; a repeat with nothing to repeat
		new(stream).dynamic(1, 0, 0, lengths(append(sparse(257, map[int]int{256: 1}), 0)...)...).code(0, 1).buf,
		new(stream).dynamic(1, 0, 0, [2]int{16, 0}).buf,
		{},
	} {
		f.Add(seed)
	}
	// Matches around the word copy's limits: distances 7 to 9, lengths whose
	// last word holds 1, 8 and 2 bytes of the match, with 0 and 6 literals
	// after it.
	for _, dist := range []int{7, 8, 9} {
		for _, length := range []int{9, 16, 258} {
			for _, tail := range []int{0, 6} {
				f.Add(matchStream(noise(24), dist, length, make([]byte, tail)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkAgainstOracle(t, src)
	})
}

// FuzzRoundTrip compresses arbitrary bytes with flate.Writer at a fuzzed
// level and decodes them back (see roundTrip).
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(nil), 0)
	f.Add(seedData(), 1)
	f.Add(seedData(), -2)
	f.Add(bytes.Repeat([]byte{0}, 3000), 6)
	f.Add(bytes.Repeat([]byte("abc"), 1000), 9)
	f.Add(noise(700), 0)
	// Periods 7 to 9, and a repeat at distance 20: long matches at and
	// around the 8 bytes a word copy needs, ending the stream.
	for _, period := range []int{7, 8, 9} {
		f.Add(bytes.Repeat(noise(period), 300/period), 1)
	}
	f.Add(append(noise(20), noise(20)...), 6)
	f.Fuzz(func(t *testing.T, data []byte, level int) {
		roundTrip(t, ((level%12)+12)%12-2, data) // -2 (HuffmanOnly) … 9
	})
}
