package lz4

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	comp, err := Compress(nil, src)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	got, err := Decompress(nil, comp)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(src))
	}
}

func TestRoundTripEmpty(t *testing.T)   { roundTrip(t, nil) }
func TestRoundTripOneByte(t *testing.T) { roundTrip(t, []byte{42}) }
func TestRoundTripShort(t *testing.T)   { roundTrip(t, []byte("hello world")) }
func TestRoundTripAllZero(t *testing.T) { roundTrip(t, make([]byte, 100000)) }
func TestRoundTripAlternate(t *testing.T) {
	b := make([]byte, 65536)
	for i := range b {
		b[i] = byte(i % 7)
	}
	roundTrip(t, b)
}

func TestRoundTripText(t *testing.T) {
	s := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 500)
	roundTrip(t, s)
}

func TestRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 13, 100, 4096, 100000} {
		b := make([]byte, n)
		r.Read(b)
		roundTrip(t, b)
	}
}

func TestRoundTripLongMatches(t *testing.T) {
	// Exercise extended length encoding (runs >> 15+255).
	b := append(bytes.Repeat([]byte{7}, 10000), bytes.Repeat([]byte("ab"), 5000)...)
	roundTrip(t, b)
}

func TestRoundTripFarOffsets(t *testing.T) {
	// A repeat at distance close to the 64 kB window limit.
	r := rand.New(rand.NewSource(2))
	chunk := make([]byte, 1000)
	r.Read(chunk)
	b := make([]byte, 0, 70000)
	b = append(b, chunk...)
	b = append(b, make([]byte, 64000)...)
	b = append(b, chunk...) // distance 65000 > maxOffset: must still round-trip (as literals)
	roundTrip(t, b)
}

// TestRoundTripAtWindowEdge: a repeat exactly at, one short of and one past
// the largest offset the format's 16 bits can carry.
func TestRoundTripAtWindowEdge(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	chunk := make([]byte, 64)
	r.Read(chunk)
	for _, dist := range []int{maxOffset - 1, maxOffset, maxOffset + 1} {
		b := make([]byte, dist+len(chunk)+mfLimit)
		for i := range b {
			b[i] = byte(i>>8) ^ byte(i*7)
		}
		copy(b, chunk)
		copy(b[dist:], chunk)
		roundTrip(t, b)
	}
}

func TestCompressesRedundantData(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 10000)
	comp, err := Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > len(src)/10 {
		t.Errorf("redundant data compressed to %d/%d bytes", len(comp), len(src))
	}
}

func TestIncompressibleWithinBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	src := make([]byte, 100000)
	r.Read(src)
	comp, err := Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > CompressBound(len(src)) {
		t.Errorf("compressed %d exceeds bound %d", len(comp), CompressBound(len(src)))
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(data []byte) bool {
		comp, err := Compress(nil, data)
		if err != nil {
			return false
		}
		got, err := Decompress(nil, comp)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data) || (len(got) == 0 && len(data) == 0)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRoundTripStructured(t *testing.T) {
	// Float64-like data with slowly varying high bytes, as in checkpoints.
	b := make([]byte, 80000)
	for i := 0; i < len(b); i += 8 {
		b[i+7] = 0x40
		b[i+6] = byte(i / 2048)
		b[i+5] = byte(i % 17)
	}
	roundTrip(t, b)
}

func TestDecompressAppendsToDst(t *testing.T) {
	src := []byte("payload payload payload payload")
	comp, err := Compress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("existing")
	got, err := Decompress(prefix, comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], src) {
		t.Error("Decompress clobbered dst prefix")
	}
	// The match-window check must be relative to the decode start, not the
	// whole dst: a match reaching into prefix would be corrupt.
}

func TestDecompressCorrupt(t *testing.T) {
	cases := [][]byte{
		{0xF0},                  // literal run 15+ext but no ext byte
		{0x10},                  // 1 literal promised, none present
		{0x00, 0x00},            // token 0 then a lone byte: truncated offset
		{0x14, 'a', 0x00, 0x00}, // offset 0 is invalid
		{0x14, 'a', 0x50, 0x00}, // offset 80 beyond produced output
		{0x14, 'a', 0x01},       // truncated offset
		{0x1F, 'a', 0x01, 0x00}, // match length extension missing
	}
	for i, c := range cases {
		if _, err := Decompress(nil, c); err == nil {
			t.Errorf("case %d: expected corruption error", i)
		}
	}
}

func TestDecompressFuzzNoPanics(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(200))
		r.Read(b)
		// Must never panic; errors are fine.
		Decompress(nil, b)
	}
}

func BenchmarkCompress(b *testing.B) {
	src := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 2000)
	b.SetBytes(int64(len(src)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst, _ = Compress(dst[:0], src)
	}
}

func BenchmarkDecompress(b *testing.B) {
	src := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 2000)
	comp, _ := Compress(nil, src)
	b.SetBytes(int64(len(src)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst, _ = Decompress(dst[:0], comp)
	}
}
