package cluster

import (
	"context"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
)

// TestSessionIDsNeverRepeat pins the uniqueness guarantee the compact
// merge stands on: shards key merge state by the session ID alone, and
// a query's session ID is its trace ID, so the trace IDs minted by one
// coordinator must be pairwise distinct for the life of the process —
// not merely unlikely to repeat, as a bare rand.Uint64() would make
// them. The salted monotone counter cannot repeat: the salt is fixed and
// the counter strictly increases.
func TestSessionIDsNeverRepeat(t *testing.T) {
	g := newTraceIDGen()
	const workers, perWorker = 16, 4096
	out := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint64, perWorker)
			for i := range ids {
				ids[i] = g.next()
			}
			out[w] = ids
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]struct{}, workers*perWorker)
	for _, ids := range out {
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				t.Fatalf("trace ID %#x minted twice", id)
			}
			seen[id] = struct{}{}
		}
	}
	// Distinct generators (coordinator restarts, two coordinators on one
	// shard) must not walk the same sequence: their salts differ.
	if g2 := newTraceIDGen(); g2.salt == g.salt {
		t.Fatalf("two generators share salt %#x", g.salt)
	}
}

// TestMergeSessionIDCollisionReplaysStaleRound forces the collision path
// the fix closes. Two concurrent compact queries that land on the same
// session ID share one shard-side session: the second query's round 0 is
// answered from the first query's per-round reply cache, computed over
// the first query's frozen snapshot — silently missing every reading
// that arrived in between, an outlier included. With bare rand.Uint64()
// IDs this was possible (if improbable) in production; with the salted
// counter it cannot happen, and this test documents exactly what the
// guarantee buys.
func TestMergeSessionIDCollisionReplaysStaleRound(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 1; i <= 3; i++ {
		if err := svc.Ingest(ingest.Reading{Sensor: 1, At: time.Duration(i) * time.Second, Values: []float64{float64(20 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(ShardServerConfig{Service: svc, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	client, err := newCtlClient()
	if err != nil {
		t.Fatal(err)
	}
	defer client.close()
	addr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Query A opens session 7; its round 0 freezes the 3-point window.
	first, _, err := client.sufficient(ctx, addr, 0, 7, 0)
	if err != nil {
		t.Fatalf("session 7 round 0: %v", err)
	}
	if containsValue(first, 55.3) {
		t.Fatalf("round 0 delta already contains the fault: %v", first)
	}

	// An outlier arrives and is fully observed before the next query.
	if err := svc.Ingest(ingest.Reading{Sensor: 9, At: 4 * time.Second, Values: []float64{55.3}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Query B collides on session 7: its "fresh" round 0 is the replay
	// of A's cached round over A's stale snapshot — the outlier is gone.
	collided, _, err := client.sufficient(ctx, addr, 0, 7, 0)
	if err != nil {
		t.Fatalf("colliding session 7 round 0: %v", err)
	}
	if !samePoints(sorted(first), sorted(collided)) {
		t.Fatalf("colliding round not replayed verbatim:\n  first:   %s\n  collide: %s", ids(first), ids(collided))
	}
	if containsValue(collided, 55.3) {
		t.Fatalf("colliding session unexpectedly saw the new reading: %v", collided)
	}

	// A distinct ID — what the salted counter guarantees every query
	// gets — freezes the current window and surfaces the outlier.
	fresh, _, err := client.sufficient(ctx, addr, 0, 8, 0)
	if err != nil {
		t.Fatalf("session 8 round 0: %v", err)
	}
	if !containsValue(fresh, 55.3) {
		t.Fatalf("fresh session round 0 misses the outlier: %s", ids(fresh))
	}
}

func containsValue(pts []core.Point, v float64) bool {
	for _, p := range pts {
		for _, x := range p.Value {
			if x == v {
				return true
			}
		}
	}
	return false
}

func sorted(pts []core.Point) []core.Point {
	out := append([]core.Point(nil), pts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID.Origin < out[j].ID.Origin ||
				(out[i].ID.Origin == out[j].ID.Origin && out[i].ID.Seq < out[j].ID.Seq)
		}
		return core.Less(out[i], out[j])
	})
	return out
}
