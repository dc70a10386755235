//go:build race

package main

// raceEnabled: the race detector slows the n=255 loopy run and the n=100k
// power-law sweep past the test timeout, so the byte-for-byte checks of
// results/e1b_loopy.txt and results/e4_powerlaw.txt run without it.
const raceEnabled = true
