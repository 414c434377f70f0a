//go:build race

package main

// raceEnabled: the race detector slows the program ~10x, so wall-clock
// workloads drop releases (failed operations) they would otherwise keep up
// with; the tests then check for races and violations only.
const raceEnabled = true
