//go:build race

package server

// The race detector randomly drops sync.Pool items (fmt's printer pool
// among them), so allocation counts are not reproducible under it.
func init() { raceEnabled = true }
