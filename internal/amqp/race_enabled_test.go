//go:build race

package amqp

// raceEnabled reports that the race detector is instrumenting this build.
// sync.Pool deliberately drops a fraction of Puts under the race detector,
// so zero-allocation assertions over pooled hot paths are skipped.
const raceEnabled = true
