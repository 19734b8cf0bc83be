//go:build !race

package amqp

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
