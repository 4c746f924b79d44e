package lzmatch

import (
	"math/rand"
	"testing"
)

// TestMatchLen: every prefix length around the eight-byte stride, against the
// byte-wise definition.
func TestMatchLen(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 40; n++ {
		for same := 0; same <= n; same++ {
			a, b := make([]byte, n), make([]byte, n+r.Intn(9))
			r.Read(a)
			copy(b, a)
			if same < n {
				b[same] ^= 1 << r.Intn(8)
			}
			if got := MatchLen(a, b); got != same {
				t.Fatalf("%d bytes of which %d agree: MatchLen %d", n, same, got)
			}
		}
	}
}

func TestHashAndStep(t *testing.T) {
	// Only the low n bytes count, and the index fits the table.
	for _, n := range []uint{4, 5, 8} {
		v := uint64(0x1122334455667788)
		if n < 8 && Hash(v, n, 14) != Hash(v&(1<<(8*n)-1), n, 14) {
			t.Errorf("Hash of %d bytes reads more", n)
		}
		if n < 8 && Hash(v, n, 14) == Hash(v^1<<(8*n-1), n, 14) {
			t.Errorf("Hash of %d bytes ignores the last of them", n)
		}
		if h := Hash(v, n, 14); h >= 1<<14 {
			t.Errorf("Hash(…, %d, 14) = %d", n, h)
		}
	}
	for _, tc := range [][3]int{{0, 64, 1}, {31, 64, 1}, {32, 64, 2}, {2047, 64, 64}, {2048, 64, 65}, {1 << 20, 64, 65}, {1 << 20, 16, 17}} {
		if got := Step(tc[0], tc[1]); got != tc[2] {
			t.Errorf("Step(%d, %d) = %d, want %d", tc[0], tc[1], got, tc[2])
		}
	}
}
