//go:build race

package blockpool

// isIdle reports whether b is already on the idle list free: a second
// release of one buffer would hand it to two owners.
func isIdle(free [][]byte, b []byte) bool {
	for _, f := range free {
		if &f[0] == &b[0] {
			return true
		}
	}
	return false
}

// poison fills a released buffer with 0xDB.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
