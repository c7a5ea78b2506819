package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
)

// TestHandoffRestoresWholeWindowAtAnyQueueDepth pins "a window restore
// must not lose points" against the flag that used to break it: the
// HANDOFF handler fed sub-batches of 64 — safe below the default queue
// depth of 256, but -queue is the operator's to set, and at depth 8 a
// 64-reading sub-batch sheds most of itself by latest-wins.
func TestHandoffRestoresWholeWindowAtAnyQueueDepth(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
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

	const sensor, points = core.NodeID(5), 256
	window := make([]core.Point, points)
	for i := range window {
		window[i] = core.NewPoint(sensor, uint32(i), time.Duration(i)*time.Second, 20+float64(i%9))
	}
	accepted, err := client.handoffTransfer(ctx, addr, sensor, window)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != points {
		t.Fatalf("shard acknowledged %d of %d points", accepted, points)
	}
	held, err := svc.HoldingsOf(ctx, sensor)
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); len(held) != points || st.Dropped != 0 {
		t.Fatalf("restored window holds %d of %d points, %d shed", len(held), points, st.Dropped)
	}
}
