//go:build race

package dataset_test

// raceEnabled reports whether the race detector is active; it slows the
// single-goroutine parser oracle twentyfold and watches nothing there, so
// that test checks fewer random values under -race.
const raceEnabled = true
