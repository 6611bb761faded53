//go:build race

// Package raceflag reports whether the race detector is compiled in.
// Zero-allocation tests skip themselves under -race, whose
// instrumentation allocates on every synchronization op.
package raceflag

// Enabled is true in builds with -race.
const Enabled = true
