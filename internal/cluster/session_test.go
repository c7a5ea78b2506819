package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/obs"
	"innet/internal/protocol"
)

// TestSessionIDsNeverRepeat pins the uniqueness guarantee the trace
// rings stand on: a query's trace ID names its spans on both sides and
// is its merge session's ID, so the trace IDs minted by one coordinator
// must be pairwise distinct for the life of the process — not merely
// unlikely to repeat, as a bare rand.Uint64() would make them. The
// salted monotone counter cannot repeat: the salt is fixed and the
// counter strictly increases.
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

// directShard starts a shard server over a fresh service whose window
// holds sensor 1's readings of the given values, one a second, and a
// control client that drives it request by request.
func directShard(t *testing.T, ctx context.Context, values ...float64) (*ingest.Service, *ShardServer, *ctlClient, string) {
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
	client := newCtlClient()
	t.Cleanup(func() { client.close() })
	return svc, srv, client, srv.Addr()
}

// refLink is a compact-merge link over svc's window built cold, outside
// any shard: what a shard's session must answer round by round.
func refLink(t *testing.T, ctx context.Context, svc *ingest.Service) *core.MergeLink {
	t.Helper()
	snap, err := svc.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewMergeSource(clusterDetCfg.Ranker, clusterDetCfg.N, snap).NewLink()
}

// farPoints returns n points of sensor 9, which the shard does not hold,
// all far above the shard's window.
func farPoints(n int) []core.Point {
	pts := make([]core.Point, n)
	for i := range pts {
		at := time.Duration(i+1) * time.Millisecond
		pts[i] = core.Point{ID: core.PointID{Origin: 9, Seq: ingest.SeqOf(at)}, Birth: at, Value: []float64{100 + float64(i*i%997)}}
	}
	return pts
}

// TestSufficientRequestFragments: a round whose coordinator delta is
// longer than one frame goes as a run of fragments back to back; the
// shard reads the whole run before it reacts, absorbs every point once,
// and answers exactly what a link built cold answers to the same rounds.
func TestSufficientRequestFragments(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var window []float64
	for i := range 40 {
		window = append(window, 20+float64(i*i%41)/4)
	}
	svc, srv, client, addr := directShard(t, ctx, window...)
	ref := refLink(t, ctx, svc)
	ref.Absorb(nil)
	want0 := ref.Delta()
	// The run's last frame pins a coordinator point on each side of every
	// point of the shard's round-0 answer, so those stop being outliers:
	// the shard owes support for new ones only if it read the whole run.
	pts := farPoints(2*maxFramePoints + 1)
	tail := pts[len(pts)-2*len(want0):]
	for i, p := range want0 {
		tail[2*i].Value = []float64{p.Value[0] - 1e-3}
		tail[2*i+1].Value = []float64{p.Value[0] + 1e-3}
	}
	firstFrame := refLink(t, ctx, svc)
	firstFrame.Absorb(nil)
	firstFrame.Delta()
	firstFrame.Absorb(pts[:maxFramePoints])

	cc, err := client.get(ctx, addr, protocol.FrameSufficient)
	if err != nil {
		t.Fatal(err)
	}
	defer client.put(cc)
	got0, _, err := client.sufficient(ctx, cc, protocol.SufficientBody{Session: 7, Round: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(got0, want0) {
		t.Fatalf("round 0 answered %v, want %v", ids(got0), ids(want0))
	}
	got1, bytes, err := client.sufficient(ctx, cc, protocol.SufficientBody{Session: 7, Round: 1, Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	ref.Absorb(pts)
	want := ref.Delta()
	if !samePoints(got1, want) {
		t.Fatalf("round 1 answered %v, want %v", ids(got1), ids(want))
	}
	if samePoints(want, firstFrame.Delta()) {
		t.Fatal("the run's later frames do not change the round's answer; the test shows nothing")
	}

	var sent int
	bodies, err := splitPoints(pts, func(frag, count uint16, chunk []core.Point) ([]byte, error) {
		return protocol.SufficientBody{Session: 7, Round: 1, Frag: frag, FragCount: count, Points: chunk}.Encode()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 3 {
		t.Fatalf("%d points went as %d frames, want 3", len(pts), len(bodies))
	}
	for _, b := range bodies {
		sent += len(b)
	}
	var span obs.Span
	for _, s := range svc.Traces().Snapshot(7, 0) {
		if s.Op == obs.OpSufficient && s.Round == 1 {
			span = s
		}
	}
	if int(span.Bytes) != sent {
		t.Fatalf("shard's round-1 span counts %d request bytes, the run carried %d", span.Bytes, sent)
	}
	if bytes <= sent {
		t.Fatalf("round 1 reports %d payload bytes, want the %d sent plus the answer", bytes, sent)
	}
	if n := srv.sessions.Load(); n != 1 {
		t.Fatalf("%d connections hold a session, want 1", n)
	}
}

// TestSufficientRoundWithoutSessionRefused: a round other than 0 on a
// connection that holds no session is refused by closing the
// connection, and the points it carried reach nothing: a later round 0
// on a fresh connection answers what a link that never saw them does.
func TestSufficientRoundWithoutSessionRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc, srv, client, addr := directShard(t, ctx, 20, 21, 22, 60, 23)
	ref := refLink(t, ctx, svc)

	stray, err := client.get(ctx, addr, protocol.FrameSufficient)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = client.sufficient(ctx, stray, protocol.SufficientBody{Session: 8, Round: 1, Points: farPoints(40)})
	client.put(stray)
	if err == nil || !stray.broken {
		t.Fatalf("round 1 with no session answered (err %v); want the connection closed", err)
	}
	if n := srv.sessions.Load(); n != 0 {
		t.Fatalf("%d connections hold a session after the refusal", n)
	}

	cc, err := client.get(ctx, addr, protocol.FrameSufficient)
	if err != nil {
		t.Fatal(err)
	}
	defer client.put(cc)
	got, _, err := client.sufficient(ctx, cc, protocol.SufficientBody{Session: 8, Round: 0})
	if err != nil {
		t.Fatal(err)
	}
	ref.Absorb(nil)
	if want := ref.Delta(); !samePoints(got, want) {
		t.Fatalf("round 0 after the refused round answered %v, want %v", ids(got), ids(want))
	}
}
