// Package leakcheck is the goroutine-leak gate shared by the tests of the
// packages that start goroutines (internal/peer, internal/ingest,
// internal/cluster): a blocking call without a way out shows up as a
// goroutine that never retires.
package leakcheck

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// Settle waits (up to five seconds) for the goroutine count to fall back
// to base and returns how many are still above it. Goroutines on their
// way out — a canceled context's AfterFunc, a peer past its last event —
// need a moment of scheduler time to retire; ones that are stuck do not
// retire at all.
func Settle(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-base)
}

// Main is a TestMain body: it runs the package's tests and fails the run,
// with the stacks, if they pass but leave goroutines behind.
func Main(m *testing.M) {
	// The fuzzing engine's signal.NotifyContext starts os/signal's
	// watcher goroutine, which then lives as long as the process. Start
	// it before taking the baseline, so a -fuzz run counts it there
	// rather than as a leak.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	signal.Stop(sig)
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if extra := Settle(base); extra > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: the tests left %d goroutines behind\n", extra)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}
