//go:build !race

package iod

const raceEnabled = false
