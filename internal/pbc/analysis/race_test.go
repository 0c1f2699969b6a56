//go:build race

package analysis_test

// raceEnabled gates the allocation ceilings, as in internal/pbc/interp.
const raceEnabled = true
