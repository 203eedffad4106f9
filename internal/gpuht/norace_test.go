//go:build !race

package gpuht

const raceEnabled = false
