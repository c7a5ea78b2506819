package ingest

import (
	"context"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
)

// TestIngestFlushBarrierUnderConcurrency is the -race stress pin for the
// enqueue path, which mutates per-sensor queues under the service READ
// lock: concurrent Ingest, Flush, Snapshot, stats scrapes and sensor
// churn all run at once against deliberately tiny queues so the
// latest-wins shedding fires constantly. It asserts the two invariants
// the load harness's exactness checkpoints stand on:
//
//   - the barrier: whenever Flush returns, every reading accepted
//     before the call has been either observed or shed — there is no
//     window where a reading sits queued while pending reads 0 (the
//     lost-update this test was written against: enqueue used to
//     increment pending only after the queue send, so a concurrent
//     Flush could return with readings still in flight);
//   - conservation: after the fleet quiesces, accepted == observed +
//     dropped and pending == 0, i.e. the latest-wins drop counters
//     account for every shed reading even when Ingest, the feeders and
//     Leave's drain race on the same queues.
func TestIngestFlushBarrierUnderConcurrency(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	svc, err := New(Config{
		Detector:   core.Config{Ranker: core.KNN{K: 2}, N: 3, Window: time.Hour},
		AutoJoin:   true,
		QueueDepth: 2, // force constant shedding
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const (
		producers = 4
		perProd   = 1500
		sensors   = 3
	)
	var prodWG, wg sync.WaitGroup
	stop := make(chan struct{})

	// Producers: monotone data time per sensor so the staleness gate
	// stays open; values are unremarkable, throughput is the point.
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				r := Reading{
					Sensor: core.NodeID(1 + (p*perProd+i)%sensors),
					At:     time.Duration(p*perProd+i) * time.Millisecond,
					Values: []float64{20 + float64(i%7)},
				}
				if err := svc.Ingest(r); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(p)
	}

	// The barrier check: every Flush return must leave no pending work
	// behind relative to what was accepted before the call. Dropped and
	// observed only grow, so accepted-before ≤ observed-after +
	// dropped-after is the strongest raceable form of the invariant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			before := svc.Stats()
			if err := svc.Flush(ctx); err != nil {
				return
			}
			after := svc.Stats()
			if before.Accepted > after.Observed+after.Dropped {
				t.Errorf("Flush returned early: accepted %d before the call, only %d observed + %d dropped after",
					before.Accepted, after.Observed, after.Dropped)
				return
			}
		}
	}()

	// Readers: snapshots and stats scrapes racing the enqueue path. The
	// pending gauge must never read negative — with the pre-fix ordering
	// (increment after the queue send) a feeder could observe and
	// decrement a reading before its producer had counted it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if p := svc.Stats().Pending; p < 0 {
				t.Errorf("pending gauge went negative: %d", p)
				return
			}
			_, _ = svc.Snapshot(ctx)
			_ = svc.SensorStats()
		}
	}()

	// Churn: one sensor joins and leaves repeatedly, exercising Leave's
	// queue drain against concurrent Ingest to the same ID.
	wg.Add(1)
	go func() {
		defer wg.Done()
		churn := core.NodeID(sensors + 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = svc.Ingest(Reading{Sensor: churn, At: time.Hour, Values: []float64{21}})
			_ = svc.Leave(churn)
		}
	}()

	// Wait for the producers, then stop the background load.
	prodWG.Wait()
	close(stop)
	wg.Wait()

	// Quiesce and check conservation.
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending = %d after final Flush, want 0", st.Pending)
	}
	if st.Accepted != st.Observed+st.Dropped {
		t.Fatalf("counter conservation broken: accepted %d != observed %d + dropped %d",
			st.Accepted, st.Observed, st.Dropped)
	}
	if st.Dropped == 0 {
		t.Fatal("stress produced no drops; QueueDepth too large for the test to bite")
	}
	// The per-sensor drop counters must sum to the service total.
	var perSensor uint64
	for _, sn := range svc.SensorStats() {
		perSensor += sn.Drops
	}
	if perSensor > st.Dropped {
		t.Fatalf("per-sensor drops %d exceed service total %d", perSensor, st.Dropped)
	}
}
