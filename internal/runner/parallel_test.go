package runner

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestRunParallelMatchesSequential checks the engine's core guarantee:
// fanning seeds across workers changes wall-clock, never results. The
// same multi-seed cell is run strictly sequentially (Workers=1) and
// maximally fanned out; every aggregated metric must agree bit-for-bit,
// because seeds share no state and aggregation is ordered.
func TestRunParallelMatchesSequential(t *testing.T) {
	cfg := quickCfg(AlgoGlobal)
	cfg.Seeds = []uint64{1, 2, 3, 4}

	cfg.Workers = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Workers is scheduling-only and the sole permitted difference.
	seq.Config.Workers, par.Config.Workers = 0, 0
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel run diverged from sequential:\nseq %+v\npar %+v", seq, par)
	}
}

// TestSessionSingleFlight hammers one session with concurrent requests
// for overlapping figures and checks that each distinct cell ran exactly
// once (the Figs. 4–6 sharing contract, now under concurrency).
func TestSessionSingleFlight(t *testing.T) {
	s := NewSession()
	var mu sync.Mutex
	ran := make(map[string]int)
	s.Observer = func(cfg Config, _ Result) {
		mu.Lock()
		ran[cacheKey(cfg)]++
		mu.Unlock()
	}
	scale := microScale()
	fig4, fig5 := figureSpec(t, "fig4"), figureSpec(t, "fig5")
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Figure(fig4, scale); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Figure(fig5, scale); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(ran) == 0 {
		t.Fatal("no cells ran")
	}
	for key, n := range ran {
		if n != 1 {
			t.Fatalf("cell %s ran %d times; single-flight must collapse duplicates", key, n)
		}
	}
}

// TestFigureOutputDeterministicUnderParallelism regenerates the same
// figure with two independent sessions and requires identical TSV bytes:
// same seeds ⇒ same series, regardless of goroutine scheduling.
func TestFigureOutputDeterministicUnderParallelism(t *testing.T) {
	render := func() string {
		fig := figure(t, NewSession(), "fig4", microScale())
		return fig.TSV(MetricTx, "tx") + fig.TSV(MetricRx, "rx")
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("nondeterministic figure output:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestRunSeedErrorSurfaces keeps error plumbing intact across the pool:
// a failing seed must fail the whole Run, with the earliest seed named
// and a zero Result returned.
func TestRunSeedErrorSurfaces(t *testing.T) {
	cfg := quickCfg(AlgoGlobal)
	cfg.Ranker = "bogus" // every seed fails at ranker construction
	cfg.Seeds = []uint64{7, 8}
	res, err := Run(cfg)
	if err == nil {
		t.Fatal("Run with an unknown ranker must fail")
	}
	if !strings.Contains(err.Error(), "seed 7") {
		t.Fatalf("error must name the earliest failing seed: %v", err)
	}
	if !reflect.DeepEqual(res, Result{}) {
		t.Fatalf("failed Run must return a zero Result, got %+v", res)
	}
}

// TestWorkersExcludedFromCacheKey: two configs differing only in Workers
// must hit the same memoized cell.
func TestWorkersExcludedFromCacheKey(t *testing.T) {
	a := quickCfg(AlgoGlobal)
	b := a
	b.Workers = 3
	a.applyDefaults()
	b.applyDefaults()
	if cacheKey(a) != cacheKey(b) {
		t.Fatal("Workers leaked into the cell cache key")
	}
}
