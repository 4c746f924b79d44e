//go:build !race

package blockpool

// isIdle is checked only under the race detector: without it, a scan of the
// idle list on every Put is not worth its cost.
func isIdle([][]byte, []byte) bool { return false }

func poison([]byte) {}
