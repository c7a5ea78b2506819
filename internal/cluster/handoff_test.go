package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/protocol"
)

// TestHandoffRestoresWholeWindowAtAnyQueueDepth pins "a window restore
// must not lose points" against the flag that used to break it: the
// restore handler fed sub-batches of 64 — safe below the default queue
// depth of 256, but -queue is the operator's to set, and at depth 8 a
// 64-reading sub-batch sheds most of itself by latest-wins. A window
// copy's write is a READINGS frame flagged FlagTransfer.
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
	client := newCtlClient()
	defer client.close()

	const sensor, points = core.NodeID(5), 256
	window := make([]core.Point, points)
	for i := range window {
		window[i] = core.NewPoint(sensor, uint32(i), time.Duration(i)*time.Second, 20+float64(i%9))
	}
	_, accepted, err := client.readings(ctx, srv.Addr(), protocol.FlagTransfer, 0, window)
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

// TestResponsesCarryTheRequestKind sends one raw request of each kind,
// in turn on one connection, to a live shard and holds every response
// to the wire's rule: the next frame on the stream, FlagResponse set,
// echoing the request's kind, reqID and trace.
func TestResponsesCarryTheRequestKind(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, _, addr := directShard(t, ctx, 20, 21, 22)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	assign, err := protocol.AssignBody{MapVersion: 1, ShardCount: 1, Sensors: []core.NodeID{1}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	readings, err := protocol.ReadingsBody{Points: []core.Point{core.NewPoint(2, 0, time.Second, 20.5)}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sufficient, err := protocol.SufficientBody{Session: 42, FragCount: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	requests := []protocol.Frame{
		{Kind: protocol.FrameAssign, Body: assign},
		{Kind: protocol.FrameEstimate, Body: protocol.EncodeEstimateRequest(1)},
		{Kind: protocol.FrameHealth},
		{Kind: protocol.FrameReadings, Body: readings},
		{Kind: protocol.FrameSufficient, Body: sufficient},
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	for i, req := range requests {
		req.ReqID, req.Trace = uint32(100+i), 7
		if err := writeFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("%v: no response: %v", req.Kind, err)
		}
		if !resp.Response() || resp.ReqID != req.ReqID || resp.Kind != req.Kind || resp.Trace != req.Trace {
			t.Fatalf("%v request answered by %v (flags %#x, reqID %d, trace %d), want a %v response to reqID %d, trace %d",
				req.Kind, resp.Kind, resp.Flags, resp.ReqID, resp.Trace, req.Kind, req.ReqID, req.Trace)
		}
	}
}
