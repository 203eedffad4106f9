//go:build race

package gpuht

// raceEnabled mirrors the race detector's build state: sync.Pool drops
// items under -race, so a Launch allocates and TestInsertBatchZeroAllocs
// cannot hold there (as simt's TestLaunchSteadyStateAllocs).
const raceEnabled = true
