package store

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
)

// gatedStore is a Mem whose Compact parks until the test opens compact,
// next to an engine whose snapshot parks until the test opens snap: the
// two points where a compaction used to lose an acknowledged append.
// Each gate signals (non-blocking) when reached. Only the first snapshot
// succeeds: a later compaction (the threshold starts one per append)
// would rewrite the store from the full engine memory and hide a loss.
type gatedStore struct {
	*Mem
	snapAt, compactAt chan struct{}
	snap, compact     chan struct{}

	mu      sync.Mutex
	live    State // the engine's memory: everything appended so far
	snapped bool
}

func newGatedStore() *gatedStore {
	return &gatedStore{
		Mem:       NewMem(),
		snapAt:    make(chan struct{}, 1),
		compactAt: make(chan struct{}, 1),
		snap:      make(chan struct{}),
		compact:   make(chan struct{}),
	}
}

func reach(at chan struct{}) {
	select {
	case at <- struct{}{}:
	default:
	}
}

func (g *gatedStore) Compact(recs []Record, ids []Identity) error {
	reach(g.compactAt)
	<-g.compact
	return g.Mem.Compact(recs, ids)
}

// snapshot copies the engine's memory as it is when the snapshot begins,
// then parks: an append made while it is parked is missing from the copy,
// exactly as a record minted after a sensor's holdings were read is.
func (g *gatedStore) snapshot(context.Context) (State, error) {
	g.mu.Lock()
	st := State{Records: slices.Clone(g.live.Records)}
	again := g.snapped
	g.snapped = true
	g.mu.Unlock()
	if again {
		return State{}, errors.New("one compaction per test")
	}
	reach(g.snapAt)
	<-g.snap
	return st, nil
}

func waitGate(t *testing.T, at chan struct{}, what string) {
	t.Helper()
	select {
	case <-at:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached", what)
	}
}

// TestPolicyKeepsAppendsDuringCompaction: an append made while the
// snapshot is in flight is folded into the compacted state, one made while
// the store's Compact runs waits and lands in the fresh log, and neither
// is lost, whether the compaction was started by the threshold (1: every
// append) or by hand.
func TestPolicyKeepsAppendsDuringCompaction(t *testing.T) {
	t.Run("record/threshold", func(t *testing.T) { testPolicyKeeps(t, false) })
	t.Run("record/manual", func(t *testing.T) { testPolicyKeeps(t, true) })
}

func testPolicyKeeps(t *testing.T, manual bool) {
	ctx := context.Background()
	g := newGatedStore()
	every := 1
	if manual {
		every = 1 << 30
	}
	p := NewPolicy(g, every, obs.NewTraceLog(64), nil, g.snapshot)

	// Append i is sensor i's reading seq 0.
	appendOne := func(i int) error {
		g.mu.Lock()
		defer g.mu.Unlock() // held across the append: the engine's memory and its log move together
		rec := Record{Sensor: core.NodeID(i), Birth: time.Duration(i) * time.Second, Values: []float64{float64(i)}}
		g.live.Records = append(g.live.Records, rec)
		return p.AppendReadings(ctx, 0, []Record{rec})
	}
	background := func(f func() error) chan error {
		done := make(chan error, 1)
		go func() { done <- f() }()
		return done
	}

	if err := appendOne(1); err != nil {
		t.Fatal(err)
	}
	compacted := make(chan error, 1)
	if manual {
		compacted = background(func() error { return p.Compact(ctx) })
	}
	waitGate(t, g.snapAt, "snapshot")

	// Mid-snapshot: the append goes through without waiting.
	select {
	case err := <-background(func() error { return appendOne(2) }):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an append waited for the snapshot")
	}
	close(g.snap)
	waitGate(t, g.compactAt, "store Compact")

	// Mid-Compact: the append waits for the truncation, then lands in the
	// fresh log. Give it time to try before the gate opens.
	third := background(func() error { return appendOne(3) })
	time.Sleep(20 * time.Millisecond)
	close(g.compact)
	if err := <-third; err != nil {
		t.Fatal(err)
	}
	if manual {
		if err := <-compacted; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.compacting.Load() {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never finished")
		}
		time.Sleep(time.Millisecond)
	}

	st, err := g.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i := core.NodeID(1); i <= 3; i++ {
		found := false
		for _, r := range st.Records {
			found = found || r.Sensor == i
		}
		if !found {
			t.Errorf("append %d lost by the compaction; durable state %+v", i, st)
		}
	}
	if m := g.Metrics(); m.Compacts != 1 {
		t.Errorf("%d compactions ran, want 1", m.Compacts)
	}
	if n := p.Errors(); n != 0 {
		t.Errorf("Errors() = %d, want 0", n)
	}
}
