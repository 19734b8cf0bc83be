//go:build !race

package cluster

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
