//go:build !race

package simclock

const raceEnabled = false
