//go:build race

package graph

// raceEnabled: under the race detector TestRandomRegularMatchesReference
// runs its -short size, two seeds without n = 6000; the full comparison
// would take minutes there.
const raceEnabled = true
