package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"innet/internal/cluster"
	"innet/internal/core"
	"innet/internal/ingest"
)

func TestParseShardList(t *testing.T) {
	got, err := parseShardList(" 127.0.0.1:9101, 127.0.0.1:9102 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want 2 addresses", got)
	}
	for _, bad := range []string{"", " , ", "no-port:"} {
		if _, err := parseShardList(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

// TestBuildRanker: the daemon refuses ranker parameters the ranker's
// zero-value defaults would silently replace, before it binds anything,
// and the error names the flags.
func TestBuildRanker(t *testing.T) {
	for _, args := range [][]string{
		{"-ranker", "knn", "-k", "0"},
		{"-ranker", "db", "-eps", "0"},
		{"-ranker", "lof"},
	} {
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newDaemon(o, testLogger(t)); err == nil || !strings.Contains(err.Error(), "-ranker/-k/-eps") {
			t.Errorf("%v: newDaemon = %v, want an error naming the flags", args, err)
		}
	}
}

// startTestShard boots one in-process detector shard (ingest fleet +
// control listener), as `innetd -shard` would out of process.
func startTestShard(t *testing.T, det core.Config) (addr string, stop func()) {
	t.Helper()
	svc, err := ingest.New(ingest.Config{Detector: det, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewShardServer(cluster.ShardServerConfig{Service: svc, Addr: "127.0.0.1:0"})
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	go srv.Serve()
	return srv.Addr(), func() { srv.Close(); svc.Close() }
}

// TestCoordinatorEndToEnd is the cluster smoke path the CI script also
// exercises across real processes: 3 shards, one coordinator, a batch
// over HTTP plus a burst over UDP, the planted outlier surfacing on the
// merged query endpoint, shard states and metrics, clean shutdown.
func TestCoordinatorEndToEnd(t *testing.T) {
	det := core.Config{Ranker: core.NN(), N: 1, Window: 10 * time.Minute}
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, stop := startTestShard(t, det)
		defer stop()
		addrs = append(addrs, addr)
	}

	o, err := parseFlags([]string{
		"-http", "127.0.0.1:0",
		"-udp", "127.0.0.1:0",
		"-shards", strings.Join(addrs, ","),
		"-replicas", "2",
		"-health-interval", "50ms",
		"-ranker", "nn",
		"-n", "1",
		"-window", "10m",
		"-v",
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(o, testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve(ctx) }()

	base := "http://" + d.Addr("http")
	waitOK(t, base+"/healthz")

	// HTTP path: a clean batch across five sensors, routed by the
	// rendezvous map.
	var batch strings.Builder
	batch.WriteString(`{"readings":[`)
	for id := 1; id <= 5; id++ {
		if id > 1 {
			batch.WriteString(",")
		}
		fmt.Fprintf(&batch, `{"sensor":%d,"at_ms":60000,"values":[%0.1f]}`, id, 20+float64(id)*0.1)
	}
	batch.WriteString("]}")
	resp, err := http.Post(base+"/v1/observations", "application/json", strings.NewReader(batch.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/observations: %d %s", resp.StatusCode, body)
	}

	// UDP path: line-protocol burst, sensor 7 reading a stuck rail.
	conn, err := net.Dial("udp", d.Addr("udp"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("3 61000 20.4\n7 62000 55.3")); err != nil {
		t.Fatal(err)
	}

	// The outlier must surface on the merged query endpoint, undegraded.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the merged outlier")
		}
		var est struct {
			Outliers []struct {
				Sensor uint16    `json:"sensor"`
				Values []float64 `json:"values"`
			} `json:"outliers"`
			Degraded  bool   `json:"degraded"`
			ShardsOK  int    `json:"shards_ok"`
			MergeMode string `json:"merge_mode"`
		}
		getJSON(t, base+"/v1/outliers", &est)
		if !est.Degraded && est.ShardsOK == 3 &&
			len(est.Outliers) == 1 && est.Outliers[0].Sensor == 7 && est.Outliers[0].Values[0] == 55.3 {
			if est.MergeMode != cluster.MergeCompact {
				t.Fatalf("default merge served by %q, want compact", est.MergeMode)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Per-query override: the full path must agree on the answer.
	var full struct {
		Outliers []struct {
			Sensor uint16 `json:"sensor"`
		} `json:"outliers"`
		MergeMode string `json:"merge_mode"`
	}
	getJSON(t, base+"/v1/outliers?merge=full", &full)
	if full.MergeMode != cluster.MergeFull || len(full.Outliers) != 1 || full.Outliers[0].Sensor != 7 {
		t.Fatalf("?merge=full gave mode=%q outliers=%v", full.MergeMode, full.Outliers)
	}
	// Any other mode is the client's error, not an unhealthy cluster.
	if resp, err = http.Get(base + "/v1/outliers?merge=bogus"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?merge=bogus answered %d, want 400", resp.StatusCode)
	}

	// Shard states: all three up.
	var shards struct {
		Shards []struct {
			Addr string `json:"addr"`
			Up   bool   `json:"up"`
		} `json:"shards"`
	}
	getJSON(t, base+"/v1/shards", &shards)
	if len(shards.Shards) != 3 {
		t.Fatalf("GET /v1/shards: %d shards, want 3", len(shards.Shards))
	}
	for _, sh := range shards.Shards {
		if !sh.Up {
			t.Fatalf("shard %s not up", sh.Addr)
		}
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"innetcoord_readings_routed_total", "innetcoord_shards 3", "innetcoord_shard_up",
		"innetcoord_merges_compact_total", "innetcoord_merge_rounds_total", "innetcoord_merge_bytes_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
}

func waitOK(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became healthy: %v", url, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// testLogger routes daemon slog records into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
