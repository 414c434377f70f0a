//go:build race

package fuzz

// raceEnabled: the race detector slows every scenario run about tenfold, so
// the longest campaign tests run a smaller budget under it — never so small
// that they stop finding what they look for.
const raceEnabled = true
