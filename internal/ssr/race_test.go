//go:build race

package ssr

// raceEnabled: under the race detector TestCloseRingSweep runs its -short
// seed count; the full sweep would take several minutes there.
const raceEnabled = true
