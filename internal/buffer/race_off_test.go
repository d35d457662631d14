//go:build !race

package buffer

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count gates skip under -race.
const raceEnabled = false
