//go:build race

package tippers

// raceEnabled leaves TestServiceReadAllocs's ceilings unchecked: under
// the race detector sync.Pool drops a quarter of what it is handed, so
// pooled scratch is allocated afresh at random.
const raceEnabled = true
