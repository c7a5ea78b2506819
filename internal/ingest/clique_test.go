package ingest

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
)

// settleClique joins n sensors as a clique, ingests per readings a sensor
// with nothing settling in between — so n·per readings and every
// broadcast they set off are in flight at once — and requires the fleet
// to settle within the timeout on the exact answer: every sensor's
// estimate equals the centralized computation over the window union.
func settleClique(t *testing.T, n, per int, timeout time.Duration) {
	t.Helper()
	cfg := Config{Detector: core.Config{Ranker: core.KNN{K: 2}, N: 3, Window: time.Hour}}
	s := newService(t, cfg)
	for id := 1; id <= n; id++ {
		if err := s.Join(core.NodeID(id)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(uint64(n), uint64(per)))
	start := time.Now()
	for i := 0; i < per; i++ {
		for id := 1; id <= n; id++ {
			v := 20 + rng.NormFloat64()
			if rng.IntN(50) == 0 {
				v += 30 // a fault
			}
			if err := s.Ingest(Reading{Sensor: core.NodeID(id), At: at(i), Values: []float64{v}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("%d-sensor clique with %d readings in flight did not settle: %v", n, n*per, err)
	}
	t.Logf("%d-sensor clique, %d readings in flight: settled in %v", n, n*per, time.Since(start))

	st := s.Stats()
	if st.Observed != uint64(n*per) || st.Dropped != 0 || st.Pending != 0 {
		t.Fatalf("observed=%d dropped=%d pending=%d, want %d, 0, 0", st.Observed, st.Dropped, st.Pending, n*per)
	}
	snap, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != n*per {
		t.Fatalf("window union holds %d points, want %d", len(snap), n*per)
	}
	want := baseline.Compute(cfg.Detector.Ranker, cfg.Detector.N, snap)
	for _, id := range s.Sensors() {
		got, err := s.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("sensor %d estimate %v, want %v", id, got, want)
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("sensor %d estimate %v, want %v", id, got, want)
			}
		}
	}
}

// TestClique64Settles is the tier-1 form of the liveness check: 64
// sensors, 256 readings in flight.
func TestClique64Settles(t *testing.T) {
	settleClique(t, 64, 4, 2*time.Minute)
}

// TestClique256Settles is the configuration that never settled on the
// bounded inbox: with four readings a sensor in flight, all 256 peers sat
// inside Broadcast on a neighbor's full inbox, each leaving its own
// undrained. A quarter of the default MaxSensors.
func TestClique256Settles(t *testing.T) {
	if testing.Short() {
		t.Skip("256-sensor clique: minutes of ranking")
	}
	settleClique(t, 256, 4, 8*time.Minute)
}

// TestSensorCostsOneGoroutine pins the fleet's footprint at rest: a
// joined sensor is one goroutine — its peer — and nothing else.
func TestSensorCostsOneGoroutine(t *testing.T) {
	s := newService(t, testConfig())
	mustFlush(t, s)
	empty := runtime.NumGoroutine()
	const sensors = 16
	for id := core.NodeID(1); id <= sensors; id++ {
		if err := s.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	mustFlush(t, s)
	if got := runtime.NumGoroutine() - empty; got > sensors+1 {
		t.Fatalf("%d joined sensors at rest cost %d goroutines over an empty service, want at most %d", sensors, got, sensors+1)
	}
}
