//go:build race

package server

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation ceilings only hold without it.
const raceEnabled = true
