//go:build !race

package vrr

const raceEnabled = false
