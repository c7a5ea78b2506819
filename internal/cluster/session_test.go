package cluster

import (
	"context"
	"net"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/obs"
	"innet/internal/protocol"
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
	svc, _, client, addr := directShard(t, ctx, 21, 22, 23)

	// Query A opens session 7; its round 0 freezes the 3-point window.
	first, _, err := client.sufficient(ctx, addr, 0, protocol.SufficientBody{Session: 7, FragCount: 1})
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
	collided, _, err := client.sufficient(ctx, addr, 0, protocol.SufficientBody{Session: 7, FragCount: 1})
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
	fresh, _, err := client.sufficient(ctx, addr, 0, protocol.SufficientBody{Session: 8, FragCount: 1})
	if err != nil {
		t.Fatalf("session 8 round 0: %v", err)
	}
	if !containsValue(fresh, 55.3) {
		t.Fatalf("fresh session round 0 misses the outlier: %s", ids(fresh))
	}
}

// TestSufficientRequestFragments drives one shard through a round whose
// coordinator delta spans two request fragments. The shard answers the
// first with an empty response and reacts only on the last, once it
// holds both halves: its delta is the one a fresh link gives after
// absorbing A ∪ B. A retried last fragment replays that delta verbatim;
// a retried first fragment is answered empty and re-absorbs nothing, so
// the next round still matches the reference link.
func TestSufficientRequestFragments(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc, srv, client, addr := directShard(t, ctx, 20.1, 20.4, 19.8, 20.0, 20.3, 21.0, 19.9, 20.2)
	snap, err := svc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a := []core.Point{core.NewPoint(9, 0, 0, 55.3), core.NewPoint(9, 1, time.Second, 20.15)}
	b := []core.Point{core.NewPoint(10, 0, 0, 54.8), core.NewPoint(10, 1, time.Second, 19.95)}
	ref := core.NewMergeSource(clusterDetCfg.Ranker, clusterDetCfg.N, snap).NewLink()
	ref.Absorb(append(slices.Clone(a), b...))
	want := ref.Delta()

	const session = 11
	frag := func(reqID uint32, round, k, count uint16, pts []core.Point) []core.Point {
		t.Helper()
		body := protocol.SufficientBody{Session: session, Round: round, Frag: k, FragCount: count, Points: pts}
		got, _, err := client.sufficient(ctx, addr, reqID, body)
		if err != nil {
			t.Fatalf("round %d fragment %d of %d: %v", round, k, count, err)
		}
		return got
	}
	if got := frag(101, 0, 0, 2, a); len(got) != 0 {
		t.Fatalf("non-final fragment answered with %s, want an empty response", ids(got))
	}
	got := frag(102, 0, 1, 2, b)
	if !samePoints(sorted(got), sorted(want)) {
		t.Fatalf("final fragment's delta %s, want %s (a fresh link after absorbing A ∪ B)", ids(got), ids(want))
	}
	if replay := frag(102, 0, 1, 2, b); !samePoints(replay, got) {
		t.Fatalf("retried final fragment answered %s, want the replay %s", ids(replay), ids(got))
	}
	if again := frag(101, 0, 0, 2, a); len(again) != 0 {
		t.Fatalf("retried non-final fragment answered with %s, want an empty response", ids(again))
	}
	next := frag(103, 1, 0, 1, nil)
	if wantNext := ref.Delta(); !samePoints(sorted(next), sorted(wantNext)) {
		t.Fatalf("round 1 after the retries answered %s, want %s", ids(next), ids(wantNext))
	}

	// One span per fragment, keyed by its pinned reqID: the ring dedupes
	// the retries, and only the final fragment carries the round's delta.
	spans := make(map[uint32]obs.Span)
	for _, s := range svc.Traces().Snapshot(session, 0) {
		if s.Op == obs.OpSufficient {
			spans[s.ReqID] = s
		}
	}
	if len(spans) != 3 || spans[101].Points != 0 || int(spans[102].Points) != len(want) || spans[102].Hit {
		t.Fatalf("shard sufficient spans = %+v, want reqIDs 101 (empty), 102 (%d points, computed) and 103", spans, len(want))
	}
	srv.mergeMu.Lock()
	held := len(srv.sessions)
	srv.mergeMu.Unlock()
	if held != 1 {
		t.Fatalf("shard holds %d sessions, want the one the fragments opened", held)
	}
}

// directShard starts a shard server over a fresh service whose window
// holds sensor 1's readings of the given values, one a second, and a
// control client that drives it frame by frame.
func directShard(t *testing.T, ctx context.Context, values ...float64) (*ingest.Service, *ShardServer, *ctlClient, *net.UDPAddr) {
	t.Helper()
	svc, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	for i, v := range values {
		if err := svc.Ingest(ingest.Reading{Sensor: 1, At: time.Duration(i+1) * time.Second, Values: []float64{v}}); err != nil {
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
	t.Cleanup(func() { srv.Close() })
	go srv.Serve()
	client, err := newCtlClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.close() })
	addr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return svc, srv, client, addr
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
