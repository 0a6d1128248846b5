//go:build race

package runtime

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// Puts on purpose, so allocation counts do not reflect normal builds.
const raceEnabled = true
