//go:build race

package simt

// raceEnabled mirrors the race detector's build state for tests: sync.Pool
// deliberately drops items under -race to shake out reuse races, so the
// zero-allocation assertion of TestLaunchSteadyStateAllocs cannot hold
// there.
const raceEnabled = true
