package pattern

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// clientGoroutines counts the goroutines runClients has started that are
// still alive: each one's stack holds a runClients closure frame.
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "pattern.runClients.func") {
			n++
		}
	}
	return n
}

// TestRunClientsMPIStartBarrier: with mpi set and one goroutine per
// client, no f runs before all n goroutines have started — the first f
// to run sees every one of them alive (none can have finished, since
// none has run f yet).
func TestRunClientsMPIStartBarrier(t *testing.T) {
	const n = 16
	for iter := 0; iter < 20; iter++ {
		// Goroutines of the previous call may still be exiting after
		// their wg.Done; wait them out so the count is this call's.
		for deadline := time.Now().Add(5 * time.Second); clientGoroutines() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d client goroutines outlived runClients", clientGoroutines())
			}
		}
		var first sync.Once
		alive := -1
		var ran atomic.Int32
		err := runClients(n, n, true, func(id int) error {
			first.Do(func() { alive = clientGoroutines() })
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != n {
			t.Fatalf("iteration %d: f ran %d times, want %d", iter, ran.Load(), n)
		}
		if alive != n {
			t.Fatalf("iteration %d: first f ran with %d of %d client goroutines started", iter, alive, n)
		}
	}
}

// TestRunClientsReturnsError: a failing f's error is returned, on the
// synchronized-start path and on the worker-pool path, and every other
// client still runs.
func TestRunClientsReturnsError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		workers int
		mpi     bool
	}{{4, true}, {4, false}, {2, false}, {0, true}} {
		t.Run(fmt.Sprintf("workers=%d/mpi=%v", tc.workers, tc.mpi), func(t *testing.T) {
			var ran atomic.Int32
			err := runClients(4, tc.workers, tc.mpi, func(id int) error {
				ran.Add(1)
				if id == 2 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			if ran.Load() != 4 {
				t.Fatalf("f ran %d times, want 4", ran.Load())
			}
		})
	}
}
