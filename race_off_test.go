//go:build !race

package tippers

const raceEnabled = false
