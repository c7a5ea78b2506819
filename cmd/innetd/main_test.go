package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"innet/internal/daemon"
	"innet/internal/store"
)

// testLogger routes daemon slog records into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func TestParseSensorList(t *testing.T) {
	for spec, want := range map[string]int{
		"":        0,
		"1-9":     9,
		"1,2,5":   3,
		"1-3,7-8": 5,
		" 4 ":     1,
	} {
		ids, err := parseSensorList(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if len(ids) != want {
			t.Errorf("%q: got %v, want %d ids", spec, ids, want)
		}
	}
	for _, bad := range []string{"x", "5-2", "1-", "-3", "1,,2"} {
		if _, err := parseSensorList(bad); err == nil {
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

// TestDaemonEndToEnd is the full smoke path the CI job also exercises
// through the shell: start the daemon, POST a batch over HTTP, fire a
// burst over UDP (auto-joining a new sensor), watch the planted outlier
// surface on the query endpoint, and shut down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	o, err := parseFlags([]string{
		"-http", "127.0.0.1:0",
		"-udp", "127.0.0.1:0",
		"-sensors", "1-5",
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

	// HTTP path: one clean batch across the pre-attached fleet.
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

	// UDP path: a burst of lines, including sensor 7 — not attached yet
	// (auto-join) — reading a stuck-at-rail value.
	conn, err := net.Dial("udp", d.Addr("udp"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var lines []string
	for i := 0; i < 20; i++ {
		lines = append(lines, fmt.Sprintf("3 %d 20.%d", 61000+i, i%10))
	}
	lines = append(lines, "7 62000 55.3")
	if _, err := conn.Write([]byte(strings.Join(lines, "\n"))); err != nil {
		t.Fatal(err)
	}

	// The outlier must surface on the query endpoint (UDP is async, so
	// poll — loopback datagrams are not lost, and resending would mint
	// duplicate 55.3 points whose mutual distance of zero erases the
	// very outlier-ness the test asserts).
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			resp, err := http.Get(base + "/metrics")
			if err == nil {
				dump, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Logf("metrics at timeout:\n%s", dump)
			}
			t.Fatal("timed out waiting for the outlier to surface")
		}
		var est struct {
			Outliers []struct {
				Sensor uint16    `json:"sensor"`
				Values []float64 `json:"values"`
			} `json:"outliers"`
		}
		getJSON(t, base+"/v1/outliers?sensor=1", &est)
		if len(est.Outliers) == 1 && est.Outliers[0].Sensor == 7 && est.Outliers[0].Values[0] == 55.3 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Metrics reflect both ingest paths.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"innetd_readings_accepted_total", "innetd_sensors 6"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Clean shutdown: serve returns nil once canceled.
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// storeOpen reports whether st still takes appends.
func storeOpen(st store.Store) bool {
	return st.AppendReadings([]store.Record{{Sensor: 1, Values: []float64{1}}}) == nil
}

// TestShutdownClosesStoreLast: the store innetd opens is deferred before
// the engine, so it is still open for the final compaction and the
// engine's close, which run last-deferred first, and closed once Serve
// returns.
func TestShutdownClosesStoreLast(t *testing.T) {
	var got []string
	var st store.Store
	sh, err := daemon.Open(daemon.Flags{HTTP: "127.0.0.1:0"}, testLogger(t), func(sh *daemon.Shell) error {
		var err error
		if st, err = openStore(sh, t.TempDir(), false); err != nil {
			return err
		}
		sh.Defer(func(context.Context) error {
			got = append(got, fmt.Sprintf("engine closed (store open: %v)", storeOpen(st)))
			return nil
		})
		sh.Defer(func(context.Context) error {
			got = append(got, fmt.Sprintf("compacted (store open: %v)", storeOpen(st)))
			return nil
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sh.Serve(ctx); err != nil {
		t.Fatalf("Serve = %v, want nil", err)
	}
	want := []string{"compacted (store open: true)", "engine closed (store open: true)"}
	if !slices.Equal(got, want) {
		t.Errorf("shutdown steps %q, want %q", got, want)
	}
	if storeOpen(st) {
		t.Error("store still open after Serve returned")
	}
}

// TestDataDirCleanShutdown: the real daemon with -data-dir shuts down
// without error (its final compaction found the store open) and leaves
// the window it held in the directory.
func TestDataDirCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	o, err := parseFlags([]string{"-http", "127.0.0.1:0", "-sensors", "1", "-data-dir", dir})
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
	resp, err := http.Post(base+"/v1/observations", "application/json",
		strings.NewReader(`{"readings":[{"sensor":1,"at_ms":60000,"values":[20.5]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/observations: %d", resp.StatusCode)
	}
	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve = %v, want nil", err)
	}
	f, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	state, err := f.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Records) != 1 || state.Records[0].Values[0] != 20.5 {
		t.Errorf("data dir holds %+v after shutdown, want the one reading", state.Records)
	}
}

// TestFailedStartClosesStore: a start that fails after the store opened
// leaves it closed.
func TestFailedStartClosesStore(t *testing.T) {
	boom := errors.New("boom")
	var st store.Store
	_, err := daemon.Open(daemon.Flags{}, testLogger(t), func(sh *daemon.Shell) error {
		var err error
		if st, err = openStore(sh, t.TempDir(), false); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Open = %v, want the build error", err)
	}
	if storeOpen(st) {
		t.Error("store still open after a failed start")
	}
}

// TestStoreAbsentWithoutDataDir: without -data-dir the engine's
// ingest.Config.Store is no store at all — not a typed nil *store.File,
// which ingest would take for a store and write to.
func TestStoreAbsentWithoutDataDir(t *testing.T) {
	if st, err := openStore(nil, "", false); st != nil || err != nil {
		t.Errorf("openStore without a dir = %#v, %v; want an untyped nil", st, err)
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
