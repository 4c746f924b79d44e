//go:build !race

package blockpool

func poison([]byte) {}
