//go:build !race

package deepforest

// raceEnabled reports a -race build, where sync.Pool drops items at
// random on purpose, so pooled scratch is sometimes rebuilt.
const raceEnabled = false
