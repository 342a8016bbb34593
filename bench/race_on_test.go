//go:build race

package main

// raceEnabled lifts TestSmoke's wall-time limit: the race detector
// slows the node several times over.
const raceEnabled = true
