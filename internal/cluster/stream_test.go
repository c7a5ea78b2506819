package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/protocol"
)

// TestReadFrameRefusesOversizePrefix: a prefix past maxFrameLen is an
// error before anything is allocated for the frame it claims, and a
// stream cut inside a frame is io.ErrUnexpectedEOF, not a clean io.EOF.
func TestReadFrameRefusesOversizePrefix(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 'C', 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 64 {
		if _, err := readFrame(bytes.NewReader(huge)); !errors.Is(err, errFrameTooLarge) {
			t.Fatalf("4 GiB prefix read as %v, want errFrameTooLarge", err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("64 refused prefixes allocated %d bytes", grew)
	}

	var buf bytes.Buffer
	if err := writeFrame(&buf, protocol.Frame{Kind: protocol.FrameHealth, Trace: 9}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if _, err := readFrame(bytes.NewReader(whole[:len(whole)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut short read as %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream read as %v, want io.EOF", err)
	}
}

// TestShardClosesConnectionsPastTheBound: a shard serves maxShardConns
// connections at once, and one more is closed on accept — its client
// sees EOF at once instead of waiting for an answer.
func TestShardClosesConnectionsPastTheBound(t *testing.T) {
	_, srv, _, addr := directShard(t, context.Background(), 20)
	var held []net.Conn
	t.Cleanup(func() {
		for _, c := range held {
			c.Close()
		}
	})
	health := func(c net.Conn) error {
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if err := writeFrame(c, protocol.Frame{Kind: protocol.FrameHealth}); err != nil {
			return err
		}
		_, err := readFrame(c)
		return err
	}
	for range maxShardConns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
		if err := health(c); err != nil {
			t.Fatalf("connection %d of the bound: %v", len(held), err)
		}
	}
	extra, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	held = append(held, extra)
	if err := health(extra); err == nil {
		t.Fatal("a connection past the bound was served")
	}
	// Releasing one makes room again.
	held[0].Close()
	waitFor(t, 10*time.Second, "a freed slot", func() bool {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return false
		}
		held = append(held, c)
		return health(c) == nil
	})
	if n := srv.sessions.Load(); n != 0 {
		t.Fatalf("%d sessions held without a merge", n)
	}
}

// TestRestartedShardGetsReadingsThroughOneRedial: the coordinator pools
// the connection a routed batch used; when the shard restarts on the
// same address that connection is stale, and the next routed READINGS
// fails on it before any response byte — so it is sent once more on a
// fresh dial and lands on the restarted shard, with no reading lost.
func TestRestartedShardGetsReadingsThroughOneRedial(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sh := startShard(t, "")
	coord, err := New(Config{
		Detector:       clusterDetCfg,
		Shards:         []string{sh.addr},
		QueryTimeout:   5 * time.Second,
		HealthInterval: time.Hour, // no probe touches the pool during the test
	})
	if err != nil {
		sh.stop()
		t.Fatal(err)
	}
	defer coord.Close()
	send := func(at time.Duration) error {
		return coord.IngestBatch([]ingest.Reading{{Sensor: 4, At: at, Values: []float64{20.5}}})[0]
	}
	if err := send(time.Second); err != nil {
		sh.stop()
		t.Fatal(err)
	}
	coord.client.mu.Lock()
	pooled := len(coord.client.idle[sh.addr])
	coord.client.mu.Unlock()
	if pooled == 0 {
		sh.stop()
		t.Fatal("the routed batch left no pooled connection")
	}

	sh.stop()
	reborn := startShard(t, sh.addr)
	defer reborn.stop()
	if err := send(2 * time.Second); err != nil {
		t.Fatalf("first batch after the restart: %v", err)
	}
	if err := reborn.svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	held, err := reborn.svc.HoldingsOf(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) != 1 || held[0].ID != (core.PointID{Origin: 4, Seq: ingest.SeqOf(2 * time.Second)}) {
		t.Fatalf("restarted shard holds %v, want the one reading sent after the restart", held)
	}
}

// TestFullMergeOverWindowPastOneFrame: a shard window of more points
// than one frame's codec admits (65,535) is answered as a run of
// fragments, so a restarted coordinator still learns its sensors, and
// the full merge serves it whole: not degraded, every point, and the
// same outliers the compact merge finds.
func TestFullMergeOverWindowPastOneFrame(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const points = 66_000
	svc, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true, QueueDepth: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	readings := make([]ingest.Reading, points)
	for i := range readings {
		v := 20 + float64(i%1000)/100
		if i%9973 == 0 {
			v = 90 + float64(i)/1000 // a handful of faults
		}
		readings[i] = ingest.Reading{Sensor: 1, At: time.Duration(i+1) * 5 * time.Millisecond, Values: []float64{v}}
	}
	if n, err := svc.Admit(ctx, readings); err != nil || n != points {
		t.Fatalf("admitted %d of %d readings: %v", n, points, err)
	}
	srv, err := NewShardServer(ShardServerConfig{Service: svc, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	coord, err := New(Config{Detector: clusterDetCfg, Shards: []string{srv.Addr()}, QueryTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.mu.Lock()
	got := slices.Sorted(maps.Keys(coord.latest))
	coord.mu.Unlock()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("the coordinator learned sensors %v from the shard, want sensor 1", got)
	}
	full, err := coord.MergedEstimateMode(ctx, MergeFull)
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded || full.ShardsOK != 1 || len(full.Window) != points {
		t.Fatalf("full merge: degraded %v, %d of 1 shards, %d of %d points", full.Degraded, full.ShardsOK, len(full.Window), points)
	}
	compact, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil {
		t.Fatal(err)
	}
	if compact.Mode != MergeCompact || !samePoints(full.Outliers, compact.Outliers) {
		t.Fatalf("compact (%s) answered %v, full %v", compact.Mode, ids(compact.Outliers), ids(full.Outliers))
	}
}

// TestConcurrentIngestWaitsForASlot: more routed batches in flight at
// once than a shard serves connections wait for one of the
// coordinator's ctlSlots instead of failing, and health probes, which
// take no slot, keep the shard up throughout.
func TestConcurrentIngestWaitsForASlot(t *testing.T) {
	sh := startShard(t, "")
	defer sh.stop()
	p := newStreamProxy(t, sh.addr)
	p.setRule(func(f protocol.Frame) fault {
		if f.Kind == protocol.FrameReadings {
			return delay // hold every exchange long enough for the batches to pile up
		}
		return pass
	})
	coord, err := New(Config{
		Detector:       clusterDetCfg,
		Shards:         []string{p.addr()},
		QueryTimeout:   20 * time.Second,
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	const batches = 3 * maxShardConns
	errs := make([]error, batches)
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = coord.IngestBatch([]ingest.Reading{{Sensor: core.NodeID(1 + i%16), At: time.Duration(i+1) * time.Second, Values: []float64{20}}})[0]
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch %d of %d: %v", i, batches, err)
		}
	}
	if st := coord.Stats(); st.Flaps != 0 {
		t.Fatalf("the shard flapped %d times under the load", st.Flaps)
	}
	coord.client.mu.Lock()
	open := len(coord.client.open)
	coord.client.mu.Unlock()
	if open > ctlSlots+1 {
		t.Fatalf("%d connections open to one shard, over the %d slots and one probe", open, ctlSlots)
	}
}
