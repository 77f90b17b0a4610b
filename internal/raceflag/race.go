//go:build race

// Package raceflag tells tests whether the race detector is on. Under it
// sync.Pool drops a share of what is put back, so allocation budgets that
// rely on pooled scratch only hold in a normal build.
package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = true
