package inflate

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	ndpcrdeflate "ndpcr/internal/compress/deflate"
)

// oracle is compress/flate's reader, the decoder Decode must agree with.
// Handed an io.ByteReader it reads no byte past the final block, so unread
// is the trailing input it ignored — the one thing Decode refuses and it
// does not.
func oracle(src []byte) (out []byte, unread int, err error) {
	in := bytes.NewReader(src)
	r := flate.NewReader(in)
	defer r.Close()
	out, err = io.ReadAll(r)
	return out, in.Len(), err
}

// checkAgainstOracle holds Decode to the parity rule on one input and
// returns what it decoded (nil when src is rejected).
func checkAgainstOracle(t testing.TB, src []byte) []byte {
	t.Helper()
	want, unread, werr := oracle(src)
	got, gerr := Decode(nil, src)
	if gerr != nil && got != nil {
		t.Fatalf("Decode returned %d bytes with error %v", len(got), gerr)
	}
	switch {
	case werr != nil:
		if gerr == nil {
			t.Fatalf("Decode accepted %d bytes that compress/flate rejects (%v)", len(src), werr)
		}
	case unread > 0:
		if gerr == nil {
			t.Fatalf("Decode accepted a stream with %d trailing bytes", unread)
		}
		if got, gerr = Decode(nil, src[:len(src)-unread]); gerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("without its %d trailing bytes: err %v, output matches compress/flate: %v",
				unread, gerr, bytes.Equal(got, want))
		}
		return nil
	case gerr != nil:
		t.Fatalf("Decode rejected %d bytes that compress/flate decodes to %d", len(src), len(want))
	case !bytes.Equal(got, want):
		t.Fatalf("Decode and compress/flate disagree on the output (%d and %d bytes)", len(got), len(want))
	}
	return got
}

// writers pools flate.Writers by level+2: allocating one (about 1 MiB) costs
// far more than compressing a fuzz input with it.
var writers [12]sync.Pool

func deflate(t testing.TB, level int, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, _ := writers[level+2].Get().(*flate.Writer)
	if w == nil {
		var err error
		if w, err = flate.NewWriter(nil, level); err != nil {
			t.Fatal(err)
		}
	}
	defer writers[level+2].Put(w)
	w.Reset(&buf)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// benchBlock is cmd/ndpcr-bench's payload shape: a smooth float64 field with
// 16 mantissa bits kept and 11 % of the words noise, which gzip(1) stores at
// 0.47 bytes per byte.
func benchBlock(size int) []byte {
	r := rand.New(rand.NewSource(7))
	data := make([]byte, size)
	for off := 0; off+8 <= size; off += 8 {
		i := float64(off / 8)
		word := math.Float64bits(1000+100*math.Sin(2*math.Pi*i/701)+3*math.Sin(2*math.Pi*i/43)) &^ (1<<36 - 1)
		if r.Float64() < 0.11 {
			word = r.Uint64()
		}
		binary.LittleEndian.PutUint64(data[off:], word)
	}
	return data
}

// matchHeavy is text-like: long matches at many distances.
func matchHeavy(size int) []byte {
	r := rand.New(rand.NewSource(11))
	words := make([][]byte, 200)
	for i := range words {
		words[i] = make([]byte, 3+r.Intn(10))
		for j := range words[i] {
			words[i][j] = byte('a' + r.Intn(26))
		}
	}
	var b []byte
	for len(b) < size {
		b = append(append(b, words[int(math.Abs(r.NormFloat64())*40)%len(words)]...), ' ')
	}
	return b[:size]
}

func noise(size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(5)).Read(b)
	return b
}

var levels = []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 6, flate.BestCompression}

// roundTrip compresses data with flate.Writer at level and decodes it three
// ways: into nil (judged against compress/flate too), into an exactly sized
// dst without reallocating, and behind a prefix that comes back untouched.
func roundTrip(t testing.TB, level int, data []byte) {
	t.Helper()
	comp := deflate(t, level, data)
	if got := checkAgainstOracle(t, comp); !bytes.Equal(got, data) {
		t.Fatalf("level %d into nil: round trip mismatch", level)
	}
	fit := make([]byte, 0, len(data))
	got, err := Decode(fit, comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("level %d into an exact fit: err %v", level, err)
	}
	if len(data) > 0 && &got[0] != &fit[:1][0] {
		t.Fatalf("level %d: an exact-fit dst was reallocated", level)
	}
	prefix := []byte("kept prefix")
	got, err = Decode(append(make([]byte, 0, len(data)/2), prefix...), comp)
	if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], data) {
		t.Fatalf("level %d behind a prefix: err %v", level, err)
	}
}

// TestRoundTrip: streams from flate.Writer at every kind of level decode back.
func TestRoundTrip(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":      nil,
		"one byte":   {42},
		"zeros":      make([]byte, 100_000), // length-258 runs at distance 1
		"period 3":   bytes.Repeat([]byte("abc"), 5000),
		"far":        append(noise(32768), noise(32768)...), // matches at distance 32768
		"noise":      noise(70_000),                         // stored blocks at every level
		"bench":      benchBlock(128 << 10),
		"text":       matchHeavy(100_000),
		"multiblock": append(matchHeavy(80_000), benchBlock(80_000)...),
	} {
		t.Run(name, func(t *testing.T) {
			for _, level := range levels {
				roundTrip(t, level, data)
			}
		})
	}
}

// stream assembles a DEFLATE stream by hand.
type stream struct {
	buf []byte
	n   int // bits used in the last byte
}

// put appends the low n bits of v, least significant first: header fields
// and extra bits.
func (s *stream) put(v, n int) *stream {
	for i := 0; i < n; i++ {
		if s.n%8 == 0 {
			s.buf = append(s.buf, 0)
		}
		s.buf[len(s.buf)-1] |= byte(v>>i&1) << (s.n % 8)
		s.n++
	}
	return s
}

// code appends an n-bit Huffman code word, most significant bit first.
func (s *stream) code(c, n int) *stream {
	return s.put(int(bits.Reverse16(uint16(c))>>(16-n)), n)
}

// raw appends whole bytes at the next byte boundary.
func (s *stream) raw(p ...byte) *stream {
	s.buf, s.n = append(s.buf, p...), 0
	return s
}

// fixed appends literal/length symbol sym in the fixed Huffman code.
func (s *stream) fixed(sym int) *stream {
	switch {
	case sym < 144:
		return s.code(0x30+sym, 8)
	case sym < 256:
		return s.code(0x190+sym-144, 9)
	case sym < 280:
		return s.code(sym-256, 7)
	}
	return s.code(0xc0+sym-280, 8)
}

// canon returns the canonical code words of the given code lengths.
func canon(lens []int) []int {
	codes, code := make([]int, len(lens)), 0
	for n := 1; n <= 15; n++ {
		for s, l := range lens {
			if l == n {
				codes[s] = code
				code++
			}
		}
		code <<= 1
	}
	return codes
}

// clLens is the code-length code every hand-built dynamic header uses:
// 13 four-bit and 6 five-bit code words, a complete code.
var clLens = []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5}

// dynamic appends a dynamic block header: the raw HLIT and HDIST fields,
// then code-length symbols as {symbol, value of its repeat bits} pairs.
func (s *stream) dynamic(final, hlit, hdist int, cl ...[2]int) *stream {
	s.put(final, 1).put(2, 2).put(hlit, 5).put(hdist, 5).put(15, 4)
	for _, sym := range clOrder {
		s.put(clLens[sym], 3)
	}
	codes := canon(clLens)
	for _, c := range cl {
		s.code(codes[c[0]], clLens[c[0]])
		s.put(c[1], map[int]int{16: 2, 17: 3, 18: 7}[c[0]])
	}
	return s
}

// lengths spells out code lengths as code-length symbols, zero runs through
// symbols 17 and 18.
func lengths(lens ...int) (cl [][2]int) {
	for i := 0; i < len(lens); {
		run := 0
		for i+run < len(lens) && lens[i+run] == 0 && run < 138 {
			run++
		}
		switch {
		case run >= 11:
			cl = append(cl, [2]int{18, run - 11})
		case run >= 3:
			cl = append(cl, [2]int{17, run - 3})
		default:
			cl, run = append(cl, [2]int{lens[i], 0}), 1
		}
		i += run
	}
	return cl
}

// sparse returns n code lengths, zero but for the given symbol → length pairs.
func sparse(n int, at map[int]int) []int {
	lens := make([]int, n)
	for s, l := range at {
		lens[s] = l
	}
	return lens
}

// TestHandBuiltStreams names every rule of the parity contract with a stream
// built bit by bit, so a regression says which rule broke. want is the
// decoded output; nil means corrupt. Every verdict is also compress/flate's,
// except where trailing is set.
func TestHandBuiltStreams(t *testing.T) {
	// Three-symbol literal/length code used below: 'a' = 0, end-of-block =
	// 10, length 3 (symbol 257) = 11.
	aEobLen3 := sparse(258, map[int]int{'a': 1, 256: 2, 257: 2})
	fixedA := func() *stream { return new(stream).put(1, 1).put(1, 2).fixed('a') }
	valid := fixedA().fixed(256).buf
	far := noise(32768)
	farStream := new(stream).put(0, 1).put(0, 2).raw(0x00, 0x80, 0xff, 0x7f).raw(far...).
		put(1, 1).put(1, 2).fixed(285).code(29, 5).put(8191, 13).fixed(256)

	for _, tc := range []struct {
		name     string
		src      []byte
		want     []byte
		trailing bool
	}{
		{name: "empty input", src: nil},
		{name: "fixed block", src: valid, want: []byte("a")},
		{name: "empty stored block", src: new(stream).put(1, 1).put(0, 2).raw(0, 0, 0xff, 0xff).buf, want: []byte{}},
		{name: "stored, fixed and dynamic blocks in sequence",
			src: new(stream).put(0, 1).put(0, 2).raw(2, 0, 0xfd, 0xff, 'h', 'i').
				put(0, 1).put(1, 2).fixed('a').fixed(256).
				dynamic(1, 1, 0, lengths(append(aEobLen3, 1)...)...).
				code(0, 1).code(3, 2).code(0, 1).code(2, 2).buf,
			want: []byte("hiaaaaa")},
		{name: "length 258 at distance 32768", src: farStream.buf, want: append(far, far[:258]...)},
		{name: "length 258 at distance 1",
			src:  fixedA().fixed(285).code(0, 5).fixed(256).buf,
			want: bytes.Repeat([]byte("a"), 259)},
		{name: "single one-bit code, empty distance code unused",
			src:  new(stream).dynamic(1, 0, 0, lengths(append(sparse(257, map[int]int{256: 1}), 0)...)...).code(0, 1).buf,
			want: []byte{}},
		{name: "single one-bit distance code",
			src: new(stream).dynamic(1, 1, 0, lengths(append(aEobLen3, 1)...)...).
				code(0, 1).code(3, 2).code(0, 1).code(2, 2).buf,
			want: []byte("aaaa")},
		{name: "repeat crossing from the literal/length into the distance lengths",
			// 'a', 'b', end-of-block explicit at two bits; one code-16 repeat
			// then covers symbol 257 and all four distance codes.
			src: new(stream).dynamic(1, 1, 3, append(lengths(sparse(256, map[int]int{'a': 2, 'b': 2})...), [2]int{2, 0}, [2]int{16, 2})...).
				code(0, 2).code(1, 2).code(3, 2).code(1, 2).code(2, 2).buf,
			want: []byte("ababa")},

		{name: "reserved block type", src: new(stream).put(1, 1).put(3, 2).buf},
		{name: "stored LEN is not ^NLEN", src: new(stream).put(1, 1).put(0, 2).raw(1, 0, 0xfe, 0xfe, 'x').buf},
		{name: "stored block cut short", src: new(stream).put(1, 1).put(0, 2).raw(5, 0, 0xfa, 0xff, 'x', 'y').buf},
		{name: "stored header cut short", src: new(stream).put(1, 1).put(0, 2).raw(0, 0, 0xff).buf},
		{name: "input ends before the end-of-block", src: fixedA().buf},
		{name: "input ends after a non-final block", src: new(stream).put(0, 1).put(1, 2).fixed('a').fixed(256).buf},
		{name: "literal/length symbol 286", src: fixedA().fixed(286).fixed(256).buf},
		{name: "literal/length symbol 287", src: fixedA().fixed(287).fixed(256).buf},
		{name: "distance symbol 30", src: fixedA().fixed(257).code(30, 5).fixed(256).buf},
		{name: "distance symbol 31", src: fixedA().fixed(257).code(31, 5).fixed(256).buf},
		{name: "distance before the first byte", src: fixedA().fixed(257).code(1, 5).fixed(256).buf},
		{name: "HLIT above 286", src: new(stream).dynamic(1, 30, 0, lengths(append(sparse(287, map[int]int{256: 1}), 0)...)...).code(0, 1).buf},
		{name: "HDIST above 30", src: new(stream).dynamic(1, 0, 30, lengths(append(sparse(257, map[int]int{256: 1}), make([]int, 31)...)...)...).code(0, 1).buf},
		{name: "repeat with no previous length", src: new(stream).dynamic(1, 0, 0, [2]int{16, 0}).buf},
		{name: "repeat past HLIT + HDIST",
			src: new(stream).dynamic(1, 0, 0, append(lengths(sparse(257, map[int]int{256: 1})...), [2]int{17, 0})...).code(0, 1).buf},
		{name: "over-subscribed code",
			src: new(stream).dynamic(1, 0, 0, lengths(append(sparse(257, map[int]int{'a': 1, 'b': 1, 256: 1}), 0)...)...).code(0, 1).buf},
		{name: "incomplete code",
			src: new(stream).dynamic(1, 0, 0, lengths(append(sparse(257, map[int]int{'a': 1, 256: 2}), 0)...)...).code(2, 2).buf},
		{name: "single two-bit code",
			src: new(stream).dynamic(1, 0, 0, lengths(append(sparse(257, map[int]int{256: 2}), 0)...)...).code(0, 2).buf},
		{name: "incomplete distance code",
			src: new(stream).dynamic(1, 0, 1, lengths(append(sparse(257, map[int]int{256: 1}), 2, 0)...)...).code(0, 1).buf},
		{name: "the bit pattern a single one-bit code leaves unused",
			src: new(stream).dynamic(1, 0, 0, lengths(append(sparse(257, map[int]int{256: 1}), 0)...)...).code(1, 1).buf},
		{name: "empty literal/length code",
			src: new(stream).dynamic(1, 0, 0, lengths(make([]int, 258)...)...).code(0, 1).buf},
		{name: "entry of an empty distance code",
			src: new(stream).dynamic(1, 1, 0, lengths(append(aEobLen3, 0)...)...).
				code(0, 1).code(3, 2).code(0, 1).code(2, 2).buf},
		{name: "empty code-length code",
			src: new(stream).put(1, 1).put(2, 2).put(0, 5).put(0, 5).put(0, 4).put(0, 12).put(0, 16).buf},

		{name: "one trailing byte", src: append(append([]byte(nil), valid...), 0), trailing: true},
		{name: "a second stream after the first", src: append(append([]byte(nil), valid...), valid...), trailing: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode(nil, tc.src)
			if (err == nil) != (tc.want != nil) || !bytes.Equal(got, tc.want) {
				t.Errorf("Decode: %d bytes, err %v; want %d bytes, corrupt %v", len(got), err, len(tc.want), tc.want == nil)
			}
			if _, unread, werr := oracle(tc.src); (werr == nil) != (tc.want != nil || tc.trailing) || werr == nil && (unread > 0) != tc.trailing {
				t.Errorf("compress/flate: err %v with %d bytes unread; the table expects otherwise", werr, unread)
			}
		})
	}
}

// fifteenBitStream is one dynamic block whose two alphabets have code words
// of every length from 1 to 15 bits, so that literals, a length, the
// end-of-block and distances are decoded through second-level subtables as
// well as the first level. It decodes to 20×14 + 16×3 bytes.
func fifteenBitStream() []byte {
	litLens, distLens := make([]int, 258), make([]int, 16)
	for i := 0; i < 14; i++ {
		litLens['a'+i], distLens[i] = i+1, i+1
	}
	litLens[256], litLens[257], distLens[14], distLens[15] = 15, 15, 15, 15
	litCodes, distCodes := canon(litLens), canon(distLens)
	s := new(stream).dynamic(1, 1, 15, lengths(append(litLens, distLens...)...)...)
	for rep := 0; rep < 20; rep++ {
		for c := 'a'; c < 'a'+14; c++ {
			s.code(litCodes[c], litLens[c])
		}
	}
	for d, n := range distLens { // length 3 at the farthest distance of every distance symbol
		s.code(litCodes[257], 15).code(distCodes[d], n).put(1<<max(d/2-1, 0)-1, max(d/2-1, 0))
	}
	return s.code(litCodes[256], 15).buf
}

func TestFifteenBitCodes(t *testing.T) {
	if got := checkAgainstOracle(t, fifteenBitStream()); len(got) != 20*14+16*3 {
		t.Fatalf("decoded %d bytes, want %d", len(got), 20*14+16*3)
	}
}

// TestRunsOfLongLiteralsNearTheEnd: in the last eight bytes of input, five
// 10-bit literals can leave fewer than 10 counted bits, so the entry read
// after them may take in bits not loaded yet, and the next refill must read
// it again. Padding shifts such runs across every bit offset of the tail.
func TestRunsOfLongLiteralsNearTheEnd(t *testing.T) {
	lens := sparse(257, map[int]int{'b': 1, 'c': 2, 'd': 3, 'e': 4, 'f': 5, 'g': 6, 'h': 7, 'i': 8, 'j': 9, 'k': 10, 256: 10})
	codes, header := canon(lens), lengths(append(lens, 0)...)
	for pad := 0; pad < 64; pad++ {
		for run := 5; run <= 12; run++ {
			s := new(stream).dynamic(1, 0, 0, header...)
			for i := 0; i < pad; i++ {
				s.code(codes['b'], 1)
			}
			for i := 0; i < run; i++ {
				s.code(codes['k'], 10)
			}
			checkAgainstOracle(t, s.code(codes['j'], 9).code(codes['c'], 2).code(codes[256], 10).buf)
		}
	}
}

// TestHistoryStartsAtThisCall: bytes already in dst are not history, and an
// error returns nil leaving them as they were.
func TestHistoryStartsAtThisCall(t *testing.T) {
	reach := new(stream).put(1, 1).put(1, 2).fixed('a').fixed(257).code(1, 5).fixed(256).buf // distance 2 after one byte
	dst := append(make([]byte, 0, 64), "history?"...)
	got, err := Decode(dst, reach)
	if err == nil || got != nil {
		t.Fatalf("a match reaching into dst's own bytes decoded to %q, err %v", got, err)
	}
	if string(dst) != "history?" {
		t.Errorf("dst changed to %q by a failed Decode", dst)
	}
}

// TestSpareCapacityBeyondResultUntouched: past the bytes it returns, Decode
// writes at most 7 bytes of slack, and into a dst whose capacity ends at the
// result it decodes in place, with no slack to write.
func TestSpareCapacityBeyondResultUntouched(t *testing.T) {
	data := append(matchHeavy(5000), benchBlock(5000)...)
	data = append(data, data[2000:3000]...) // ends in matches at distance 8000
	for _, level := range levels {
		comp := deflate(t, level, data)
		for _, spare := range []int{0, 64} {
			buf := bytes.Repeat([]byte{0xee}, len(data)+64)
			got, err := Decode(buf[:0:len(data)+spare], comp)
			if err != nil || !bytes.Equal(got, data) || &got[0] != &buf[0] {
				t.Fatalf("level %d, %d spare bytes: err %v, or not decoded in place", level, spare, err)
			}
			if n := len(bytes.TrimRight(buf[len(data):], "\xee")); n > min(spare, 7) {
				t.Errorf("level %d, %d spare bytes: %d bytes past the result were written", level, spare, n)
			}
		}
	}
}

// matchStream is one fixed-code block: the literals before, one match of
// length at distance dist, the literals after.
func matchStream(before []byte, dist, length int, after []byte) []byte {
	s := new(stream).put(1, 1).put(1, 2)
	for _, b := range before {
		s.fixed(int(b))
	}
	sym, x, base := symbolFor(litSyms[257:286], length)
	s.fixed(257+sym).put(length-base, x)
	sym, x, base = symbolFor(distSyms[:30], dist)
	s.code(sym, 5).put(dist-base, x)
	for _, b := range after {
		s.fixed(int(b))
	}
	return s.fixed(256).buf
}

// symbolFor returns the symbol of syms (entries of litSyms or distSyms)
// whose range holds v, with its extra-bit count and base.
func symbolFor(syms []uint32, v int) (sym, x, base int) {
	sym = len(syms) - 1
	for int(syms[sym]>>16) > v {
		sym--
	}
	return sym, int(syms[sym] >> 8 & 15), int(syms[sym] >> 16)
}

// TestMatchShapes holds the match copy to compress/flate's reader at every
// distance from 1 to 20 (below, at and past the 8 bytes a word copy needs)
// by every length up to 18, so that a copy's last word ends at each offset,
// and the longest four. Each match is followed by 0 to 8 literals and
// decoded into a dst of exactly the result's size, where the matches near
// its end must fall back to the exact copy, and into one with 64 spare
// bytes.
func TestMatchShapes(t *testing.T) {
	before := noise(24)
	for dist := 1; dist <= 20; dist++ {
		for _, length := range []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 255, 256, 257, 258} {
			for tail := 0; tail <= 8; tail++ {
				src := matchStream(before, dist, length, before[:tail])
				want, _, err := oracle(src)
				if err != nil {
					t.Fatalf("distance %d, length %d: compress/flate: %v", dist, length, err)
				}
				for _, spare := range []int{0, 64} {
					got, err := Decode(make([]byte, 0, len(want)+spare), src)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("distance %d, length %d, %d literals after, %d spare bytes: err %v, output matches compress/flate: %v",
							dist, length, tail, spare, err, bytes.Equal(got, want))
					}
				}
			}
		}
	}
}

// TestEveryPrefixIsCorrupt: a stream cut anywhere before its end is refused.
func TestEveryPrefixIsCorrupt(t *testing.T) {
	data := append(matchHeavy(3000), noise(300)...)
	for _, level := range levels {
		comp := deflate(t, level, data)
		for n := 0; n < len(comp); n++ {
			if got, err := Decode(nil, comp[:n]); err == nil {
				t.Fatalf("level %d: %d of %d bytes decoded to %d bytes", level, n, len(comp), len(got))
			}
		}
	}
}

// TestMutatedStreamsAgainstFlate is the differential fuzz target's
// deterministic slice for tier-1: bit flips, truncations, overwrites and
// random bytes, each judged by both decoders.
func TestMutatedStreamsAgainstFlate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := append(benchBlock(8000), matchHeavy(8000)...)
	var streams [][]byte
	for _, level := range levels {
		streams = append(streams, deflate(t, level, data), deflate(t, level, data[:300]))
	}
	for iter := 0; iter < 4000; iter++ {
		s := append([]byte(nil), streams[r.Intn(len(streams))]...)
		switch r.Intn(4) {
		case 0: // flips in the header region, where the code tables live
			for k := r.Intn(3); k >= 0; k-- {
				s[r.Intn(min(len(s), 200))] ^= 1 << r.Intn(8)
			}
		case 1:
			s = s[:r.Intn(len(s)+1)]
		case 2:
			i := r.Intn(len(s))
			r.Read(s[i:min(len(s), i+1+r.Intn(8))])
		case 3:
			s = make([]byte, r.Intn(64))
			r.Read(s)
		}
		checkAgainstOracle(t, s)
	}
}

// TestConcurrentDecode: the Codec contract — a restore's 8 workers (its
// window at 1 MiB blocks) call Decode at once over the pooled tables.
func TestConcurrentDecode(t *testing.T) {
	data := append(benchBlock(64<<10), matchHeavy(64<<10)...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		comp := deflate(t, levels[g%len(levels)], data[g*1000:])
		wg.Add(1)
		go func(want []byte) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, err := Decode(nil, comp); err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent Decode: err %v", err)
					return
				}
			}
		}(data[g*1000:])
	}
	wg.Wait()
}

// TestDecodeAllocates: nothing for the output into a dst that fits exactly
// (under 1 KiB a call in steady state: the pooled tables), one buffer into nil.
func TestDecodeAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed")
	}
	data := benchBlock(1 << 20)
	comp := deflate(t, flate.BestSpeed, data)
	measure := func(dst []byte) uint64 {
		Decode(dst, comp) // fills the pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			if got, err := Decode(dst, comp); err != nil || len(got) != len(data) {
				t.Fatalf("Decode: %d bytes, err %v", len(got), err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 100
	}
	if perCall := measure(make([]byte, 0, len(data))); perCall >= 1024 {
		t.Errorf("Decode into an exactly sized dst allocates %d bytes a call, want < 1 KiB", perCall)
	}
	if perCall := measure(nil); perCall > 2*uint64(len(data)) {
		t.Errorf("Decode into nil allocates %d bytes a call for %d decoded, want one buffer under twice that", perCall, len(data))
	}
}

var sink []byte

// BenchmarkDecode is the single-thread rate EXPERIMENTS.md quotes: 1 MiB
// blocks of the bench payload through flate.Writer at levels 1 and 6 and
// through deflate.Encode (what the drain stores), decoded by compress/flate
// as gzipCodec.Decompress did before this package, and by Decode into nil and
// into a sized dst.
func BenchmarkDecode(b *testing.B) {
	for _, in := range []struct {
		name string
		data []byte
	}{{"bench", benchBlock(1 << 20)}, {"text", matchHeavy(1 << 20)}} {
		for _, enc := range []struct {
			name string
			comp []byte
		}{
			{"gzip(1)", deflate(b, 1, in.data)},
			{"gzip(6)", deflate(b, 6, in.data)},
			{"deflate.Encode", ndpcrdeflate.Encode(nil, in.data)},
		} {
			comp := enc.comp
			run := func(how string, decode func() ([]byte, error)) {
				b.Run(fmt.Sprintf("%s/%s/%s", in.name, enc.name, how), func(b *testing.B) {
					b.SetBytes(int64(len(in.data)))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var err error
						if sink, err = decode(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			run("flate", func() ([]byte, error) {
				var buf bytes.Buffer
				r := flate.NewReader(bytes.NewReader(comp))
				_, err := io.Copy(&buf, r)
				return buf.Bytes(), err
			})
			run("nil", func() ([]byte, error) { return Decode(nil, comp) })
			sized := make([]byte, 0, len(in.data))
			run("sized", func() ([]byte, error) { return Decode(sized, comp) })
		}
	}
}
