//go:build !race

package linearize

const raceEnabled = false
