//go:build !race

package iostore

const raceEnabled = false
