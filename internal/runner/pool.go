package runner

import (
	"runtime"
	"sync"
)

// The experiment engine runs one simulation per (cell, seed) pair, and a
// figure session fans many cells out at once. Cell goroutines are cheap
// coordinators; only seed simulations do CPU work, so a semaphore bounds
// how many simulations execute at any moment. A Session owns one that all
// its cells share, which keeps total parallelism at the session's worker
// count no matter how many figures or sweeps are in flight; a Run outside
// a session has its own.

// slots returns a semaphore of n slots, or of GOMAXPROCS slots when n < 1.
func slots(n int) chan struct{} {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return make(chan struct{}, n)
}

// forEachIndex runs fn(0..n-1) on its own goroutines and returns the
// lowest-index error, making fan-out failures deterministic. It is the
// coordination layer for sweeps: the goroutines it spawns do no
// simulation work themselves and are throttled transitively by the
// session's semaphore.
func forEachIndex(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
