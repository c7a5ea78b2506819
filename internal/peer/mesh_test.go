package peer

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestDetachDuringBroadcast pins the fix for a shutdown crash: Broadcast
// captures target inboxes outside the mesh lock, so Detach closing an
// inbox mid-send used to panic the sender with "send on closed channel".
// The worst case is a sender blocked on a full inbox at the moment of
// Detach; now Detach waits for the send, which completes as soon as the
// consumer drains one slot.
func TestDetachDuringBroadcast(t *testing.T) {
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

	// Fill node 2's inbox to capacity so the next send blocks.
	ctx := context.Background()
	pkt := Packet{From: 1, Payload: []byte("x")}
	for i := 0; i < cap(tb.Inbox()); i++ {
		if err := ta.Broadcast(ctx, pkt); err != nil {
			t.Fatal(err)
		}
	}

	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		_ = ta.Broadcast(ctx, pkt) // blocks on the full inbox
	}()
	detachDone := make(chan struct{})
	go func() {
		defer close(detachDone)
		time.Sleep(10 * time.Millisecond) // let the send block first
		mesh.Detach(2)
	}()

	done := tb.(PacketDoner)
	<-tb.Inbox() // drain one slot: the blocked send completes, then Detach closes
	done.PacketDone()
	for _, ch := range []chan struct{}{sendDone, detachDone} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("send/detach did not finish")
		}
	}

	// The inbox must drain fully and then report closed.
	got := 0
	for range tb.Inbox() {
		got++
		done.PacketDone()
	}
	if got != cap(tb.Inbox()) {
		t.Fatalf("drained %d packets after detach, want %d", got, cap(tb.Inbox()))
	}

	// Broadcasts to a departed node are dropped, not delivered, and do
	// not count as in flight (quiescence still settles).
	if err := ta.Broadcast(ctx, pkt); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
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
	// Nobody consumes node 2's inbox yet: this packet stays in flight.
	if err := ta.Broadcast(context.Background(), Packet{From: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}

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
	// The goroutines that carried an expired context's broadcast are
	// already on their way out; give the scheduler a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d expired WaitQuiescent calls left %d goroutines behind", calls, after-before)
	}

	// A waiter whose context stays live still sees the mesh drain.
	waited := make(chan error, 1)
	go func() { waited <- mesh.WaitQuiescent(context.Background()) }()
	<-tb.Inbox()
	tb.(PacketDoner).PacketDone()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("WaitQuiescent after drain = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitQuiescent did not return once the mesh drained")
	}
}
