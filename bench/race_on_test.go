//go:build race

package main

// raceEnabled relaxes the smoke test's time limit: the race detector
// slows the quick runs about fourfold.
const raceEnabled = true
