//go:build !race

package pattern

// raceEnabled reports whether the race detector is on; the corpus-wide
// differential test samples its documents under it, since the naive
// reference evaluators run an order of magnitude slower there.
const raceEnabled = false
