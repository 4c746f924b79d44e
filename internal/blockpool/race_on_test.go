//go:build race

package blockpool

const raceEnabled = true
