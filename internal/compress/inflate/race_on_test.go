//go:build race

package inflate

const raceEnabled = true
