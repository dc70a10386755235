//go:build !race

package ssr

const raceEnabled = false
