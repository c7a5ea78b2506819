package ingest

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/store"
)

// gateStore wraps a Store and blocks inside Compact until released, so a
// test can interleave appends with an in-flight compaction at exactly the
// point the snapshot→truncate race used to lose acknowledged records.
type gateStore struct {
	store.Store
	entered chan struct{} // signaled (non-blocking) when Compact is entered
	release chan struct{} // Compact proceeds once this is closed
}

func (g *gateStore) Compact(recs []store.Record, ids []store.Identity) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return g.Store.Compact(recs, ids)
}

func newStoreService(t *testing.T, st store.Store) *Service {
	t.Helper()
	svc, err := New(Config{
		Detector: core.Config{Ranker: core.KNN{K: 2}, N: 2, Window: 10 * time.Minute},
		AutoJoin: true,
		// Manual compaction only: the test drives CompactStore itself.
		CompactEvery: 1 << 30,
		Store:        st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// A record persisted (and acknowledged) while CompactStore is mid-flight
// must survive the compaction: it is either folded into the compacted
// state or appended after the truncation, never erased by it.
func TestCompactStoreKeepsRecordsPersistedDuringCompaction(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mem := store.NewMem()
	gs := &gateStore{Store: mem, entered: make(chan struct{}, 1), release: make(chan struct{})}
	svc := newStoreService(t, gs)
	defer svc.Close()

	if err := svc.Ingest(Reading{Sensor: 1, At: time.Second, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	compErr := make(chan error, 1)
	go func() { compErr <- svc.CompactStore(ctx) }()
	select {
	case <-gs.entered:
	case <-ctx.Done():
		t.Fatal("CompactStore never reached Compact")
	}

	// The compaction now holds its snapshot (the reading at 1 s only) and is
	// blocked inside Compact. Ingest a second reading: its persist must
	// not be allowed to land in the log the compaction will truncate.
	if err := svc.Ingest(Reading{Sensor: 1, At: 2 * time.Second, Values: []float64{2}}); err != nil {
		t.Fatal(err)
	}
	// Give the feeder time to mint and attempt the store append.
	time.Sleep(100 * time.Millisecond)
	close(gs.release)
	if err := <-compErr; err != nil {
		t.Fatalf("CompactStore: %v", err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	st, err := gs.Load()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range st.Records {
		if r.Sensor == 1 && r.Birth == 2*time.Second {
			found = true
		}
	}
	if !found {
		t.Fatalf("sensor 1's reading at 2 s, persisted during compaction, was lost; surviving records: %+v", st.Records)
	}
}

// Hammering ingest concurrently with repeated compactions must leave
// every in-window point recoverable from the store: nothing acknowledged
// may fall into the gap between a compaction's snapshot and its WAL
// truncation (window large, so no point ever evicts).
func TestCompactStoreConcurrentIngestNoLoss(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	mem := store.NewMem()
	svc := newStoreService(t, mem)
	defer svc.Close()

	const readings = 300
	var wg sync.WaitGroup
	wg.Add(1)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < readings; i++ {
			r := Reading{
				Sensor: core.NodeID(1 + i%3),
				At:     time.Duration(i/3) * time.Millisecond,
				Values: []float64{float64(i)},
			}
			if err := svc.Ingest(r); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
		}
	}()
	for {
		if err := svc.CompactStore(ctx); err != nil {
			t.Fatalf("CompactStore: %v", err)
		}
		select {
		case <-done:
			wg.Wait()
			if err := svc.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			window, err := svc.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			st, err := mem.Load()
			if err != nil {
				t.Fatal(err)
			}
			durable := make(map[core.PointID]bool, len(st.Records))
			for _, r := range st.Records {
				durable[r.Point().ID] = true
			}
			for _, p := range window {
				if !durable[p.ID] {
					t.Errorf("in-window point %v missing from the store after concurrent compactions", p.ID)
				}
			}
			return
		default:
		}
	}
}

// A data directory written when sequence numbers were minted can hold
// two points of one sensor at one data time (seqs 0 and 1). Warm derives
// both IDs from the birth, so they fold into the first copy; the fold is
// counted as a repeat and logged, not hidden in the restored count.
func TestWarmFoldsMintedSameTimePoints(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mem := store.NewMem()
	if err := mem.AppendReadings([]store.Record{
		{Sensor: 1, Seq: 0, Birth: 5 * time.Second, Values: []float64{20}},
		{Sensor: 1, Seq: 1, Birth: 5 * time.Second, Values: []float64{21}},
		{Sensor: 2, Seq: 0, Birth: 5 * time.Second, Values: []float64{22}},
	}); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	svc, err := New(Config{
		Detector:     core.Config{Ranker: core.KNN{K: 2}, N: 2, Window: 10 * time.Minute},
		AutoJoin:     true,
		CompactEvery: 1 << 30,
		Store:        mem,
		Logger:       slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Warm(ctx); err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 || snap[0].ID.Origin != 1 || snap[0].Value[0] != 20 {
		t.Fatalf("window after warm = %v, want sensor 1's first copy (20) and sensor 2's point", snap)
	}
	if got := svc.Stats().Repeated; got != 1 {
		t.Fatalf("Repeated = %d, want 1", got)
	}
	if !strings.Contains(logs.String(), "records=1") {
		t.Fatalf("warm logged no fold: %q", logs.String())
	}
}
