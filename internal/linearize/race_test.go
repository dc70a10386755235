//go:build race

package linearize

// raceEnabled: the race detector's shadow memory counts toward
// runtime.MemStats, so TestMemoryRunAllocations skips under it.
const raceEnabled = true
