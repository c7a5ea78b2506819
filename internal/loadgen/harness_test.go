package loadgen

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
)

// TestHarnessEndToEnd runs the whole loop in-process: a real
// ingest.Service behind a real UDP socket and HTTP server, a scenario
// with churn, loss and bursts, two exactness checkpoints, and the
// artifact written and re-parsed. This is the harness's own
// integration proof; the shell smoke script repeats it against real
// daemon processes.
func TestHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips the 2s live-fire harness run")
	}

	svc, err := ingest.New(ingest.Config{
		Detector: core.Config{Ranker: core.KNN{K: 2}, N: 2, Window: time.Hour},
		AutoJoin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go svc.ServeUDP(conn)

	sc := &Scenario{
		Name:        "e2e",
		Seed:        1234,
		Fleet:       FleetConfig{Sensors: 60, Attached: 6},
		Traffic:     TrafficConfig{DurationS: 2, StepMS: 50, Rate: 2000, Senders: 2, LinesPerDatagram: 8},
		Regime:      RegimeConfig{Kind: "steady", Base: 20, Noise: 0.3},
		Burst:       &BurstConfig{Rate: 0.005, Offset: 80},
		Churn:       &ChurnConfig{DownRate: 0.01, MinDownSteps: 2, MaxDownSteps: 4},
		Loss:        &LossConfig{Rate: 0.05},
		Detector:    DetectorConfig{Ranker: "knn", K: 2, N: 2, WindowS: 3600},
		Queries:     QueryConfig{Modes: []string{"single"}},
		Checkpoints: CheckpointConfig{Count: 2},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}

	target, err := DetectTarget(ts.URL, conn.LocalAddr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if target.Cluster {
		t.Fatal("single innetd misclassified as a cluster")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runner := &Runner{Scenario: sc, Target: target, Logf: t.Logf}
	report, err := runner.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if len(report.Checkpoints) != 2 {
		t.Fatalf("checkpoints = %d, want 2", len(report.Checkpoints))
	}
	if !report.CheckpointsOK {
		t.Errorf("exactness checkpoints failed: %+v", report.Checkpoints)
	}
	for i, cp := range report.Checkpoints {
		if cp.WindowPoints == 0 {
			t.Errorf("checkpoint %d saw an empty window", i)
		}
	}
	if report.Fire.Sent == 0 || report.Fire.Datagrams == 0 {
		t.Errorf("firehose sent nothing: %+v", report.Fire)
	}
	if report.Fire.Lost == 0 || report.Fire.Down == 0 {
		t.Errorf("loss/churn overlays never triggered: %+v", report.Fire)
	}
	dir := t.TempDir()
	path, err := report.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := dir + "/innetload_e2e.json"; path != want {
		t.Errorf("artifact path = %q, want %q", path, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if back.Scenario != "e2e" || back.Fire.Sent != report.Fire.Sent || len(back.Checkpoints) != 2 || !back.CheckpointsOK {
		t.Errorf("artifact round-trip lost fields: %+v", back)
	}
}
