//go:build race

package main

// raceEnabled: the race detector slows the n=255 loopy run past the test
// timeout, so the byte-for-byte check of results/e1b_loopy.txt runs without it.
const raceEnabled = true
