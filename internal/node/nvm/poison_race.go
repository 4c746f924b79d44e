//go:build race

package nvm

// raceEnabled makes retireLocked poison what it retires.
const raceEnabled = true
