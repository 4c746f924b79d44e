//go:build !race

package nvm

const raceEnabled = false
