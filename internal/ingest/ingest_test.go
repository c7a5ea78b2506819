package ingest

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
)

func testConfig() Config {
	return Config{
		Detector: core.Config{
			Ranker: core.NN(),
			N:      1,
			Window: time.Hour,
		},
	}
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func mustFlush(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatal("flush:", err)
	}
}

func at(sec int) time.Duration { return time.Duration(sec) * time.Second }

func TestIngestMalformedReadings(t *testing.T) {
	s := newService(t, testConfig())
	for name, r := range map[string]Reading{
		"sensor-zero":  {Sensor: 0, At: 0, Values: []float64{1}},
		"negative-ts":  {Sensor: 1, At: -time.Second, Values: []float64{1}},
		"empty-vector": {Sensor: 1, At: 0},
		"nan":          {Sensor: 1, At: 0, Values: []float64{math.NaN()}},
		"inf":          {Sensor: 1, At: 0, Values: []float64{math.Inf(1)}},
		"too-wide":     {Sensor: 1, At: 0, Values: make([]float64, 256)},
	} {
		if err := s.Ingest(r); !errors.Is(err, ErrBadReading) {
			t.Errorf("%s: got %v, want ErrBadReading", name, err)
		}
	}
	if got := s.Stats().Malformed; got != 6 {
		t.Errorf("Malformed = %d, want 6", got)
	}
	if got := s.Stats().Accepted; got != 0 {
		t.Errorf("Accepted = %d, want 0", got)
	}
}

func TestIngestUnknownSensorRejected(t *testing.T) {
	s := newService(t, testConfig()) // AutoJoin off
	err := s.Ingest(Reading{Sensor: 9, At: 0, Values: []float64{20}})
	if !errors.Is(err, ErrUnknownSensor) {
		t.Fatalf("got %v, want ErrUnknownSensor", err)
	}
	if got := s.Stats().Unknown; got != 1 {
		t.Errorf("Unknown = %d, want 1", got)
	}
}

// TestJoinThenBurst is the dynamic-join path under fire: many goroutines
// burst readings at sensors that do not exist yet, racing the auto-join.
// Every reading must be accepted, every sensor attached exactly once, and
// the planted outlier must surface everywhere.
func TestJoinThenBurst(t *testing.T) {
	cfg := testConfig()
	cfg.AutoJoin = true
	s := newService(t, cfg)

	const sensors, perSensor = 8, 25
	var wg sync.WaitGroup
	for id := core.NodeID(1); id <= sensors; id++ {
		for i := 0; i < perSensor; i++ {
			wg.Add(1)
			go func(id core.NodeID, i int) {
				defer wg.Done()
				v := 20.0 + float64(i)*0.01
				if id == 3 && i == 7 {
					v = 55.3 // the planted fault
				}
				if err := s.Ingest(Reading{Sensor: id, At: at(i), Values: []float64{v}}); err != nil {
					t.Error(err)
				}
			}(id, i)
		}
	}
	wg.Wait()
	mustFlush(t, s)

	st := s.Stats()
	if st.Accepted != sensors*perSensor || st.Observed != sensors*perSensor {
		t.Fatalf("accepted=%d observed=%d, want both %d", st.Accepted, st.Observed, sensors*perSensor)
	}
	if st.Joins != sensors || st.Sensors != sensors {
		t.Fatalf("joins=%d sensors=%d, want both %d", st.Joins, st.Sensors, sensors)
	}
	// Batch-observe fast path: bursts coalesce, so ranking passes stay
	// well under one per reading.
	if st.Batches >= st.Observed {
		t.Errorf("batches=%d not below observed=%d; batching never coalesced", st.Batches, st.Observed)
	}
	for _, id := range s.Sensors() {
		est, err := s.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(est) != 1 || est[0].Value[0] != 55.3 {
			t.Fatalf("sensor %d estimate %v, want the 55.3 outlier", id, est)
		}
	}
}

// TestBackpressureLatestWins pins the documented drop policy: with the
// consumer stalled, a full queue sheds its oldest reading for each new one,
// so the queue always holds the newest QueueDepth readings.
func TestBackpressureLatestWins(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 4
	s := newService(t, cfg)
	if err := s.Join(1); err != nil {
		t.Fatal(err)
	}

	s.mu.RLock()
	sn := s.sensors[1]
	s.mu.RUnlock()
	// Stall the consumer: park the peer's loop in a posted event, so the
	// drains Ingest posts queue up behind it.
	parked, gate := make(chan struct{}), make(chan struct{})
	defer close(gate)
	sn.peer.Post(func(*core.Detector) *core.Outbound {
		close(parked)
		<-gate
		return nil
	})
	<-parked

	const total = 10
	for i := 0; i < total; i++ {
		if err := s.Ingest(Reading{Sensor: 1, At: at(i), Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if st.Accepted != total {
		t.Errorf("Accepted = %d, want %d (ingestion never blocks)", st.Accepted, total)
	}
	if st.Dropped != uint64(total-cfg.QueueDepth) {
		t.Errorf("Dropped = %d, want %d", st.Dropped, total-cfg.QueueDepth)
	}
	if got := s.pending.Load(); got != int64(cfg.QueueDepth) {
		t.Errorf("pending = %d, want %d", got, cfg.QueueDepth)
	}
	// The survivors are the newest readings, oldest-first.
	for want := total - cfg.QueueDepth; want < total; want++ {
		got := <-sn.queue
		if got.obs.Value[0] != float64(want) {
			t.Fatalf("queue yielded value %v, want %d (latest-wins order)", got.obs.Value[0], want)
		}
		s.pending.Add(-1) // keep the gauge honest
	}
}

func TestOutOfOrderAndStaleTimestamps(t *testing.T) {
	cfg := testConfig()
	cfg.Detector.Window = time.Minute
	s := newService(t, cfg)
	if err := s.Join(1); err != nil {
		t.Fatal(err)
	}

	ingest := func(sec int) error {
		return s.Ingest(Reading{Sensor: 1, At: at(sec), Values: []float64{float64(sec)}})
	}
	if err := ingest(100); err != nil {
		t.Fatal(err)
	}
	if err := ingest(70); err != nil { // out of order but inside the window
		t.Fatalf("in-window out-of-order reading rejected: %v", err)
	}
	if err := ingest(10); !errors.Is(err, ErrStale) { // 10s < 100s − 60s
		t.Fatalf("got %v, want ErrStale", err)
	}
	mustFlush(t, s)

	st := s.Stats()
	if st.Observed != 2 || st.Stale != 1 {
		t.Fatalf("observed=%d stale=%d, want 2 and 1", st.Observed, st.Stale)
	}
}

func TestLeaveDetachesSensor(t *testing.T) {
	s := newService(t, testConfig())
	for id := core.NodeID(1); id <= 3; id++ {
		if err := s.Join(id); err != nil {
			t.Fatal(err)
		}
		if err := s.Ingest(Reading{Sensor: id, At: at(1), Values: []float64{20 + float64(id)*0.1}}); err != nil {
			t.Fatal(err)
		}
	}
	mustFlush(t, s)

	if err := s.Leave(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(2); err == nil {
		t.Fatal("second Leave succeeded, want error")
	}
	if got := s.Sensors(); len(got) != 2 {
		t.Fatalf("Sensors() = %v, want 2 entries", got)
	}
	if err := s.Ingest(Reading{Sensor: 2, At: at(2), Values: []float64{20}}); !errors.Is(err, ErrUnknownSensor) {
		t.Fatalf("ingest to departed sensor: got %v, want ErrUnknownSensor", err)
	}
	// The survivors keep working: fresh data still flows and converges.
	if err := s.Ingest(Reading{Sensor: 1, At: at(3), Values: []float64{48}}); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, s)
	est, err := s.Estimate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 1 || est[0].Value[0] != 48 {
		t.Fatalf("sensor 3 estimate %v, want the 48 outlier", est)
	}
}

func TestEstimatesConvergeAcrossFleet(t *testing.T) {
	s := newService(t, testConfig())
	const fleet = 5
	for id := core.NodeID(1); id <= fleet; id++ {
		if err := s.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	for id := core.NodeID(1); id <= fleet; id++ {
		v := 19.5 + float64(id)*0.2
		if id == 3 {
			v = -40 // frozen battery
		}
		if err := s.Ingest(Reading{Sensor: id, At: at(int(id)), Values: []float64{v}}); err != nil {
			t.Fatal(err)
		}
	}
	mustFlush(t, s)

	first, err := s.Estimate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0].Value[0] != -40 {
		t.Fatalf("estimate %v, want the -40 outlier", first)
	}
	for id := core.NodeID(2); id <= fleet; id++ {
		est, err := s.Estimate(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(est) != len(first) || est[0].ID != first[0].ID {
			t.Fatalf("sensor %d estimate %v disagrees with sensor 1's %v", id, est, first)
		}
	}
}

// TestMaxSensorsCapsFleet pins the guard against unauthenticated input
// minting unbounded sensors: joins beyond the cap — explicit or
// auto-join — are rejected, and leaving frees a slot.
func TestMaxSensorsCapsFleet(t *testing.T) {
	cfg := testConfig()
	cfg.AutoJoin = true
	cfg.MaxSensors = 2
	s := newService(t, cfg)

	for id := core.NodeID(1); id <= 2; id++ {
		if err := s.Ingest(Reading{Sensor: id, At: 0, Values: []float64{20}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ingest(Reading{Sensor: 3, At: 0, Values: []float64{20}}); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("auto-join over cap: got %v, want ErrFleetFull", err)
	}
	if err := s.Join(3); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("explicit join over cap: got %v, want ErrFleetFull", err)
	}
	mustFlush(t, s)
	if err := s.Leave(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(3); err != nil {
		t.Fatalf("join after leave freed a slot: %v", err)
	}
}

func TestCloseRefusesFurtherWork(t *testing.T) {
	s := newService(t, testConfig())
	if err := s.Join(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if err := s.Ingest(Reading{Sensor: 1, At: 0, Values: []float64{1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: got %v, want ErrClosed", err)
	}
	if err := s.Join(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("join after close: got %v, want ErrClosed", err)
	}
}
