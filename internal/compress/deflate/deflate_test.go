package deflate

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"ndpcr/internal/compress/huffman"
	"ndpcr/internal/compress/inflate"
	"ndpcr/internal/compress/lz4"
	"ndpcr/internal/miniapps"
)

// benchBlock is cmd/ndpcr-bench's payload shape: a smooth float64 field with
// 16 mantissa bits kept and 11 % of the words noise.
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

func noise(size int, seed int64) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkpoint is one Small checkpoint of the named mini-app.
func checkpoint(t testing.TB, name string) []byte {
	t.Helper()
	app, err := miniapps.New(name, miniapps.Small, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := app.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkStream holds one stream to the parity rule: package inflate and
// compress/flate's reader both decode it to src, and the latter reads all of
// it.
func checkStream(t testing.TB, src, comp []byte) {
	t.Helper()
	got, err := inflate.Decode(nil, comp)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("inflate.Decode of %d bytes encoded to %d: err %v, equal %v", len(src), len(comp), err, bytes.Equal(got, src))
	}
	in := bytes.NewReader(comp)
	got, err = io.ReadAll(flate.NewReader(in))
	if err != nil || !bytes.Equal(got, src) || in.Len() != 0 {
		t.Fatalf("compress/flate of %d bytes encoded to %d: err %v, equal %v, %d bytes unread",
			len(src), len(comp), err, bytes.Equal(got, src), in.Len())
	}
}

// roundTrip encodes src into nil and checks the stream.
func roundTrip(t testing.TB, src []byte) []byte {
	t.Helper()
	comp := Encode(nil, src)
	checkStream(t, src, comp)
	return comp
}

func TestRoundTrip(t *testing.T) {
	inputs := map[string][]byte{
		"bench":    benchBlock(1 << 20),
		"period 3": bytes.Repeat([]byte("abc"), 5000),
		// A repeat at the longest distance the format has, and one byte past it.
		"distance 32768": append(noise(maxDist, 1), noise(maxDist, 1)...),
		"distance 32769": append(noise(maxDist+1, 1), noise(maxDist+1, 1)...),
		// Batches that end inside a literal run, and blocks of every kind in
		// one stream.
		"mixed": bytes.Join([][]byte{noise(3*batchBytes+17, 2), benchBlock(300_000), make([]byte, 70_000), noise(9, 3)}, nil),
	}
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 11, 12, 13, 258, 259, 260, 261, 32768, 32769, 65535, 65536} {
		inputs[fmt.Sprintf("%d zeros", n)] = make([]byte, n)
		inputs[fmt.Sprintf("%d noise", n)] = noise(n, 4)
		inputs[fmt.Sprintf("%d bench", n)] = benchBlock(n)
	}
	for _, name := range miniapps.Names() {
		inputs[name] = checkpoint(t, name)
	}
	for name, src := range inputs {
		t.Run(name, func(t *testing.T) {
			comp := roundTrip(t, src)
			switch name {
			case "distance 32768":
				if len(comp) > maxDist+maxDist/8 {
					t.Errorf("%d bytes: the second half did not match the first", len(comp))
				}
			case "distance 32769":
				if len(comp) < 2*maxDist {
					t.Errorf("%d bytes: matched at a distance the format does not have", len(comp))
				}
			}
		})
	}
}

// sequences runs the match finder alone over src and returns what it found:
// flush leaves e.seqs in place. (None of these tests' sequences is zero: no
// literal before a match of three at distance one.)
func sequences(src []byte) (seqs []sequence) {
	e := &encoder{out: make([]byte, 0)}
	e.encode(src, true)
	for _, s := range e.seqs {
		if s == 0 {
			break
		}
		seqs = append(seqs, s)
	}
	return seqs
}

// TestZeros: a run is one probe, then matches of 258 at distance 1 without
// another; a megabyte of it is one block of a kilobyte.
func TestZeros(t *testing.T) {
	src := make([]byte, 1<<20)
	if comp := roundTrip(t, src); len(comp) >= len(src)/500 {
		t.Errorf("1 MiB of zeros encodes to %d bytes, want under 0.2 %%", len(comp))
	}
	seqs := sequences(src)
	if want := (len(src) + maxMatch - 1) / maxMatch; len(seqs) != want {
		t.Fatalf("%d sequences, want %d", len(seqs), want)
	}
	covered := 0
	for i, s := range seqs {
		run, length, dist := int(s>>32), int(uint8(s>>16))+3, int(s&0x7fff)+1
		covered += run + length
		if dist != 1 || (length != maxMatch && i < len(seqs)-2) || (run != 0) != (i == 0) {
			t.Fatalf("sequence %d: %d literals, length %d, distance %d", i, run, length, dist)
		}
	}
	if covered != len(src) {
		t.Errorf("sequences cover %d bytes of %d", covered, len(src))
	}
}

// TestProbesEveryPositionOfALoad: a load probes three positions, and a
// repeat of five bytes (what a position is hashed by) that starts at the
// second or third of them is a match — a matcher that probed only the first
// position of each load would leave it literals. In noise the loads come
// three bytes apart, at bytes 0, 3, 6, …; the one at byte 6 probes 7, 8, 9.
func TestProbesEveryPositionOfALoad(t *testing.T) {
	for k := 1; k <= 2; k++ {
		src := noise(32, int64(20+k))
		at := 7 + k
		copy(src[at:], src[1:1+hashLen])
		src[at-1], src[at+hashLen] = ^src[0], ^src[1+hashLen] // the repeat is exactly five bytes
		roundTrip(t, src)
		seqs := sequences(src)
		if len(seqs) != 1 {
			t.Fatalf("repeat at the probe %d of a load: %d sequences, want 1", k+1, len(seqs))
		}
		s := seqs[0]
		if run, length, dist := int(s>>32), int(uint8(s>>16))+3, int(s&0x7fff)+1; run != at || length != hashLen || dist != at-1 {
			t.Errorf("repeat at the probe %d of a load: %d literals, length %d, distance %d; want %d, %d, %d",
				k+1, run, length, dist, at, hashLen, at-1)
		}
	}
}

// TestRatio: the match finder's ratio on what the drain stores, held to the
// single-probe finder it replaced (four-byte hash, one probe per load): no
// worse on the bench payload, within 2 % on each mini-app's checkpoint.
func TestRatio(t *testing.T) {
	before := map[string]int{ // Encode's output in bytes, single-probe finder
		"bench": 494085, "CoMD": 17821, "HPCCG": 150245, "miniAero": 35065,
		"miniFE": 388232, "miniMD": 28964, "miniSmac": 50517, "pHPCCG": 68335,
	}
	for name, was := range before {
		var src []byte
		if name == "bench" {
			src = benchBlock(1 << 20)
		} else {
			src = checkpoint(t, name)
		}
		limit := was
		if name != "bench" {
			limit += was / 50
		}
		if got := len(Encode(nil, src)); got > limit {
			t.Errorf("%s: %d bytes encode to %d (%.4f), the single-probe finder's %d (%.4f): want at most %d",
				name, len(src), got, float64(got)/float64(len(src)), was, float64(was)/float64(len(src)), limit)
		}
	}
}

// TestNoise: what does not compress is stored, batch by batch.
func TestNoise(t *testing.T) {
	src := noise(1<<20, 5)
	if comp := roundTrip(t, src); len(comp) > len(src)+len(src)/1000+16 {
		t.Errorf("1 MiB of noise encodes to %d bytes", len(comp))
	}
	src = append(src[:300_000:300_000], make([]byte, 300_000)...)
	if comp := roundTrip(t, src); len(comp) > 300_000+300_000/100 {
		t.Errorf("noise then zeros encodes to %d bytes: the fallback is not per batch", len(comp))
	}
}

// TestDistances: no sequence reaches further back than the format can say.
func TestDistances(t *testing.T) {
	// Copies of one page, each further from the last — 4096, 20096, 32096
	// and 36096 bytes from start to start — behind runs of a two-byte
	// pattern, which leave the page's table entries standing: one batch,
	// whose longest match reaches just under the limit and whose last copy
	// finds none.
	page := noise(4096, 6)
	src := page
	for _, gap := range []int{0, 16000, 28000, 32000} {
		src = append(append(src, bytes.Repeat([]byte{1, 2}, gap/2)...), page...)
	}
	roundTrip(t, src)
	far := 0
	for _, s := range sequences(src) {
		far = max(far, int(s&0x7fff)+1)
		if ds := uint32(s >> 24 & 31); ds != distSym(uint32(s&0x7fff)) || ds >= numDist {
			t.Fatalf("sequence %#x: distance symbol %d", s, ds)
		}
	}
	if far > maxDist || far < maxDist-4096 {
		t.Errorf("longest distance %d, want just under %d", far, maxDist)
	}
}

func TestAppendsBehindPrefix(t *testing.T) {
	src := benchBlock(100_000)
	want := Encode(nil, src)
	for _, spare := range []int{0, 10, len(want), 2 * len(want)} {
		prefix := []byte("kept prefix")
		got := Encode(append(make([]byte, 0, len(prefix)+spare), prefix...), src)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("with %d spare bytes: prefix intact %v, stream identical %v", spare,
				bytes.Equal(got[:len(prefix)], prefix), bytes.Equal(got[len(prefix):], want))
		}
	}
}

// TestSequenceBufferFills: the batch closes when seqs is full — between two
// matches with literals pending, which belong to the next batch's histogram,
// and inside one match longer than maxSeqs × 258 bytes.
func TestSequenceBufferFills(t *testing.T) {
	// Five-byte words (what the match finder hashes) of a small vocabulary,
	// every third followed by a byte seen nowhere else: matches of 5 to 10
	// with at most one literal between, so the sequences run out before the
	// symbols do.
	r := rand.New(rand.NewSource(8))
	var src []byte
	for i := 0; len(src) < 600_000; i++ {
		w := uint64(r.Intn(64)+1) * 0x9e3779b97f4a7c15
		src = binary.LittleEndian.AppendUint64(src, w)[:len(src)+hashLen]
		if i%3 == 0 {
			src = append(src, byte(r.Intn(256)))
		}
	}
	roundTrip(t, src)
	if n := len(sequences(src)); n != maxSeqs {
		t.Fatalf("the longest batch has %d sequences: the input no longer fills the buffer", n)
	}
	roundTrip(t, make([]byte, maxSeqs*maxMatch+100_000))
}

// TestPieces: input longer than maxPiece is encoded piece by piece into one
// stream.
func TestPieces(t *testing.T) {
	src := append(benchBlock(70_000), noise(5_000, 9)...)
	for _, piece := range []int{1, 7, 1000, 65_536, len(src) - 1, len(src)} {
		checkStream(t, src, encodePieces(nil, src, piece))
	}
}

// TestCanonicalIsPrefixCode: as the stream carries them, no code word is the
// low bits of another, at the limits the encoder uses.
func TestCanonicalIsPrefixCode(t *testing.T) {
	var h huffman.Builder
	r := rand.New(rand.NewSource(10))
	for _, tc := range []struct{ n, limit int }{{numLit, maxLitBits}, {numDist, maxCodeBits}, {numCL, maxCLBits}} {
		freq := make([]uint32, tc.n)
		for i := range freq {
			freq[i] = uint32(math.Exp(r.Float64() * 20)) // skewed enough to reach the limit
		}
		lens, code := make([]uint8, tc.n), make([]uint32, tc.n)
		h.Lengths(lens, freq, tc.limit)
		canonical(code, lens)
		longest := uint32(0)
		for a, ca := range code {
			longest = max(longest, ca&lenMask)
			for b, cb := range code {
				if la, lb := ca&lenMask, cb&lenMask; a != b && la <= lb && (ca>>8) == (cb>>8)&(1<<la-1) {
					t.Fatalf("%d symbols: code word of %d is a prefix of that of %d", tc.n, a, b)
				}
			}
		}
		if int(longest) != tc.limit {
			t.Errorf("%d symbols: longest code word %d bits, want the limit %d", tc.n, longest, tc.limit)
		}
	}
}

// TestLimitedCodesDecode: a batch whose byte frequencies want code words of
// over 20 bits gives a block both decoders read — each checks that the
// codes it is sent are complete — with the longest at the limit.
func TestLimitedCodesDecode(t *testing.T) {
	var src []byte
	for b, n := 0, 2; b < 24; b, n = b+1, n*17/10+1 { // 23 bits: each outweighs all before it
		src = append(src, bytes.Repeat([]byte{byte(b * 10)}, n)...)
	}
	e := &encoder{out: make([]byte, 0)}
	e.flush(src, 0, 0, len(src), true) // no sequences: all of it literals
	longest := uint8(0)
	for _, l := range e.lens[:e.hlit] {
		longest = max(longest, l)
	}
	if longest != maxLitBits {
		t.Errorf("longest literal code word %d bits, want the limit of %d", longest, maxLitBits)
	}
	checkStream(t, src, e.finish())
}

// TestTables holds the start-up tables to RFC 1951 §3.2.5.
func TestTables(t *testing.T) {
	for l := 3; l <= maxMatch; l++ {
		s := lenSym[l-3]
		if extra := l - 3 - int(lenBase[s]); extra < 0 || extra >= 1<<lenExtra[s] {
			t.Errorf("length %d: symbol %d with extra %d of %d bits", l, 257+int(s), extra, lenExtra[s])
		}
	}
	if lenSym[0] != 0 || lenSym[7] != 7 || lenSym[8] != 8 || lenSym[254] != 27 || lenSym[255] != 28 || lenExtra[28] != 0 {
		t.Error("length symbols are not the RFC's")
	}
	for d := uint32(0); d < maxDist; d++ {
		s := distSym(d)
		base := uint32(1)
		if s >= 2 {
			base = 1 + (2+s&1)<<distExtra[s]
		} else {
			base += s
		}
		if d+1 < base || d+1 >= base+1<<distExtra[s] {
			t.Fatalf("distance %d: symbol %d covers %d..%d", d+1, s, base, base+1<<distExtra[s]-1)
		}
	}
	if n := bits.Len(uint(maxDist - 1)); n != 15 {
		t.Errorf("distance − 1 takes %d bits of a sequence, want 15", n)
	}
}

// TestConcurrentEncode: the Codec contract — the NDP's compress workers call
// Encode at once over the pooled encoders.
func TestConcurrentEncode(t *testing.T) {
	data := append(benchBlock(256<<10), checkpoint(t, "miniMD")...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		src := data[g*4099:]
		want := Encode(nil, src)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := Encode(nil, src); !bytes.Equal(got, want) {
					t.Error("concurrent Encode: output differs from the same input encoded alone")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEncodeAllocates: nothing into a dst with room (the pooled encoder),
// dst's growth alone into nil.
func TestEncodeAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed")
	}
	src := benchBlock(1 << 20)
	roomy := make([]byte, 0, len(src))
	if n := testing.AllocsPerRun(20, func() { sink = Encode(roomy, src) }); n != 0 {
		t.Errorf("Encode into a dst with room allocates %v times a call, want 0", n)
	}
	// 16 batches into a buffer that doubles: a handful of growths.
	if n := testing.AllocsPerRun(20, func() { sink = Encode(nil, src) }); n > 6 {
		t.Errorf("Encode into nil allocates %v times a call, want dst's growth only", n)
	}
}

var sink []byte

// BenchmarkEncode is the kernel table of EXPERIMENTS.md: MB/s of input and
// compressed/uncompressed, one core, for compress/flate's level 1 (gzip(1)
// before this package), Encode, and lz4 on the bench payload in 1 MiB blocks
// and on one Small checkpoint of each mini-app.
func BenchmarkEncode(b *testing.B) {
	type input struct {
		name string
		data []byte
	}
	inputs := []input{{"bench", benchBlock(1 << 20)}}
	for _, name := range miniapps.Names() {
		inputs = append(inputs, input{name, checkpoint(b, name)})
	}
	w, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range inputs {
		run := func(how string, encode func(dst []byte) []byte) {
			b.Run(in.name+"/"+how, func(b *testing.B) {
				b.SetBytes(int64(len(in.data)))
				dst := make([]byte, 0, lz4.CompressBound(len(in.data))+1024)
				for i := 0; i < b.N; i++ {
					sink = encode(dst)
				}
				b.ReportMetric(float64(len(sink))/float64(len(in.data)), "ratio")
			})
		}
		run("flate", func(dst []byte) []byte {
			buf := bytes.NewBuffer(dst)
			w.Reset(buf)
			w.Write(in.data)
			w.Close()
			return buf.Bytes()
		})
		run("deflate", func(dst []byte) []byte { return Encode(dst, in.data) })
		run("lz4", func(dst []byte) []byte {
			out, _ := lz4.Compress(dst, in.data)
			return out
		})
	}
}
