//go:build race

package pattern

const raceEnabled = true
