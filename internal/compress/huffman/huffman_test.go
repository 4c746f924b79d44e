package huffman

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// kraft returns the sum over the used symbols of 2^(limit−length): 2^limit
// for a complete code.
func kraft(lens []uint8, limit int) (sum int) {
	for _, l := range lens {
		if l != 0 {
			sum += 1 << (limit - int(l))
		}
	}
	return sum
}

// TestHuffmanLengths: optimal where the limit allows, and complete at the
// limit where it does not — frequencies that grow like Fibonacci numbers
// want one more bit per symbol.
func TestHuffmanLengths(t *testing.T) {
	var h Builder
	fib := make([]uint32, 40)
	fib[0], fib[1] = 1, 1
	for i := 2; i < len(fib); i++ {
		fib[i] = fib[i-1] + fib[i-2]
	}
	r := rand.New(rand.NewSource(10))
	skewed := make([]uint32, 286)
	for i := range skewed {
		skewed[i] = uint32(math.Exp(r.Float64() * 20))
	}
	flat := make([]uint32, 286)
	for i := range flat {
		flat[i] = 3
	}
	for _, tc := range []struct {
		name  string
		freq  []uint32
		limit int
	}{
		{"fibonacci 15", fib[:30], 15},
		{"fibonacci 14", fib[:30], 14},
		{"fibonacci 7", fib[:19], 7},
		{"fibonacci 7 of 12", fib[:12], 7},
		{"skewed 286 at 14", skewed, 14},
		{"skewed 286 at 9", skewed, 9},
		{"flat", flat, 14},
		{"bwz's alphabet and limit", skewed[:258], 20},
		{"two", []uint32{0, 5, 0, 0, 1}, 7},
		{"sparse", []uint32{0, 0, 9, 0, 0, 0, 1, 0, 4}, 7},
	} {
		lens := make([]uint8, len(tc.freq))
		h.Lengths(lens, tc.freq, tc.limit)
		longest := 0
		for s, l := range lens {
			longest = max(longest, int(l))
			if (l == 0) != (tc.freq[s] == 0) {
				t.Errorf("%s: symbol %d of frequency %d has length %d", tc.name, s, tc.freq[s], l)
			}
		}
		if longest > tc.limit || kraft(lens, tc.limit) != 1<<tc.limit {
			t.Errorf("%s: longest %d, Kraft sum %d/%d: not a complete code within %d bits",
				tc.name, longest, kraft(lens, tc.limit), 1<<tc.limit, tc.limit)
		}
		// The rarer symbol never has the shorter code word.
		for a := range lens {
			for b := range lens {
				if tc.freq[a] > tc.freq[b] && tc.freq[b] > 0 && lens[a] > lens[b] {
					t.Fatalf("%s: frequency %d has %d bits, frequency %d has %d", tc.name, tc.freq[a], lens[a], tc.freq[b], lens[b])
				}
			}
		}
	}
	// Unlimited, the Fibonacci code is the textbook one: 1, 2, 3, … bits.
	lens := make([]uint8, 14)
	h.Lengths(lens, fib[:14], 15)
	for s, l := range lens {
		if want := min(14-s, 13); int(l) != want {
			t.Errorf("fibonacci, unlimited: symbol %d has %d bits, want %d", s, l, want)
		}
	}
	// One symbol, and none.
	lens = []uint8{9, 9, 9}
	h.Lengths(lens, []uint32{0, 7, 0}, 15)
	if !bytes.Equal(lens, []uint8{0, 1, 0}) {
		t.Errorf("one used symbol: lengths %v", lens)
	}
	h.Lengths(lens, []uint32{0, 0, 0}, 15)
	if !bytes.Equal(lens, []uint8{0, 0, 0}) {
		t.Errorf("no used symbol: lengths %v", lens)
	}
}
