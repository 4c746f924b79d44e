//go:build race

package blockpool

import (
	"strings"
	"testing"
)

const raceEnabled = true

// TestDoubleReleasePanics: under the race detector a Put of a buffer that is
// already idle is caught, and the panic names its class.
func TestDoubleReleasePanics(t *testing.T) {
	b := Get(8 << 10)
	Put(b)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "8192-byte buffer released twice") {
			t.Errorf("second Put of one buffer: panic %q, want one naming the 8192-byte class", msg)
		}
	}()
	Put(b)
}
