package peer

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// packetFor is a broadcast carrying one point tagged for node to.
func packetFor(from, to core.NodeID, seq uint32) *core.Outbound {
	return &core.Outbound{From: from, Groups: []core.Group{
		{To: to, Points: []core.Point{core.NewPoint(from, seq, 0, float64(seq))}},
	}}
}

// TestMailboxNeverRefusesUntilDetach pins the property the fleet's
// liveness stands on: a sender's progress never depends on a receiver's.
// With the bounded inbox this replaces, every peer of a large clique
// could sit in Broadcast on a full inbox while its own went undrained;
// now ten thousand broadcasts into a mailbox nobody reads simply return.
// Detach then closes the mailbox without waiting on anyone: everything
// it accepted is still handed to the consumer before it reports closed,
// and a broadcast to the departed node is not an event at all.
func TestMailboxNeverRefusesUntilDetach(t *testing.T) {
	mesh := NewMesh()
	ta, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := mesh.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Connect(1, 2); err != nil {
		t.Fatal(err)
	}

	const sent = 10000
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		for i := 0; i < sent; i++ {
			ta.Broadcast(packetFor(1, 2, uint32(i)))
		}
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("broadcasts into an unconsumed mailbox did not return")
	}
	if got := mesh.inFlight.Load(); got != sent {
		t.Fatalf("%d events in flight, want %d", got, sent)
	}

	mesh.Detach(2)

	// The mailbox must drain fully, in order, and then report closed.
	box := tb.Mailbox()
	for want := 0; want < sent; want++ {
		ev, ok := box.next(nil)
		if !ok {
			t.Fatalf("mailbox ran dry after %d events, want %d", want, sent)
		}
		if ev.from != 1 || len(ev.pts) != 1 || ev.pts[0].ID.Seq != uint32(want) {
			t.Fatalf("event %d is %+v: out of order", want, ev)
		}
		mesh.add(-1)
	}
	if _, ok := box.next(nil); ok {
		t.Fatal("an event after the last: want an empty mailbox that reports closed")
	}

	// Broadcasts to a departed node are dropped, not delivered, and do
	// not count as in flight (quiescence still settles); its mailbox
	// refuses direct puts the same way.
	ta.Broadcast(packetFor(1, 2, sent))
	if box.put(event{from: 1}) {
		t.Fatal("a closed mailbox accepted an event")
	}
	wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mesh.WaitQuiescent(wctx); err != nil {
		t.Fatalf("mesh never quiescent after detach: %v", err)
	}
}

// TestWaitQuiescentLeavesNoGoroutineBehind pins the fix for a waiter leak:
// each call used to park a helper goroutine in cond.Wait that exited only
// when the mesh drained, so every Flush whose deadline passed first (a
// POST /v1/flush against a fleet that never settles) left one behind.
func TestWaitQuiescentLeavesNoGoroutineBehind(t *testing.T) {
	mesh := NewMesh()
	ta, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := mesh.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Connect(1, 2); err != nil {
		t.Fatal(err)
	}
	// Nobody consumes node 2's mailbox yet: this packet stays in flight.
	ta.Broadcast(packetFor(1, 2, 0))

	before := runtime.NumGoroutine()
	const calls = 50
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			if err := mesh.WaitQuiescent(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("WaitQuiescent = %v, want deadline exceeded", err)
			}
		}()
	}
	wg.Wait()
	if left := leakcheck.Settle(before); left > 0 {
		t.Fatalf("%d expired WaitQuiescent calls left %d goroutines behind", calls, left)
	}

	// A waiter whose context stays live still sees the mesh drain.
	waited := make(chan error, 1)
	go func() { waited <- mesh.WaitQuiescent(context.Background()) }()
	if _, ok := tb.Mailbox().next(nil); !ok {
		t.Fatal("the packet never reached node 2's mailbox")
	}
	mesh.add(-1)
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("WaitQuiescent after drain = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitQuiescent did not return once the mesh drained")
	}
}
