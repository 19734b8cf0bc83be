//go:build race

package cluster

// raceEnabled reports that the race detector is instrumenting this build,
// which runs TestClusterSim's seeds about ten times slower.
const raceEnabled = true
