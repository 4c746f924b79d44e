package deflate

import (
	"testing"

	"ndpcr/internal/miniapps"
)

// FuzzEncode encodes arbitrary bytes and reads the stream back with package
// inflate and with compress/flate's reader: both must return the input (see
// checkStream). Encode must never panic.
func FuzzEncode(f *testing.F) {
	for _, name := range miniapps.Names() {
		f.Add(checkpoint(f, name))
	}
	f.Add(benchBlock(64 << 10))
	f.Add(make([]byte, 70_000))
	f.Add(noise(70_000, 5))
	for _, n := range []int{0, 1, 3, 4, 11, 12, 13, 258, 259, 32768, 32769, 65535, 65536} {
		f.Add(benchBlock(n + 8)[:n])
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		roundTrip(t, src)
	})
}
