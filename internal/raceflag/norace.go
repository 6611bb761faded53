//go:build !race

package raceflag

// Enabled is true in builds with -race.
const Enabled = false
