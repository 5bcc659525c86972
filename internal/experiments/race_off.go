//go:build !race

package experiments

// raceEnabled reports whether the race detector is on. Wall-clock
// bounds are only evaluated without it: the detector's scheduling
// overhead adds noise on the order of the margins they measure.
const raceEnabled = false
