//go:build race

package blockpool

// poison fills a released buffer with 0xDB.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
