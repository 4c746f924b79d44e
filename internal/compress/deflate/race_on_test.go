//go:build race

package deflate

const raceEnabled = true
