package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"innet/internal/ingest"
)

// fakeTarget is a minimal innetd stand-in for checkpoint tests: static
// metrics (so the barrier sees a stable counter immediately), a no-op
// flush, and a canned /v1/outliers answer.
type fakeTarget struct {
	window      []ingest.WireOutlier
	outliers    []ingest.WireOutlier
	failWindow  bool // 500 every ?window=1 fetch
	windowCalls int
}

func (f *fakeTarget) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("innetd_readings_accepted_total 42\n"))
	})
	mux.HandleFunc("POST /v1/flush", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"flushed":true}`))
	})
	mux.HandleFunc("GET /v1/outliers", func(w http.ResponseWriter, r *http.Request) {
		withWindow := r.URL.Query().Get("window") == "1"
		if withWindow {
			f.windowCalls++
			if f.failWindow {
				http.Error(w, "shard restarting", http.StatusInternalServerError)
				return
			}
		}
		reply := map[string]any{"outliers": f.outliers}
		if withWindow {
			reply["window"] = f.window
		}
		json.NewEncoder(w).Encode(reply)
	})
	return mux
}

// checkpointScenario is the smallest valid detector spec: NN ranker,
// one outlier.
func checkpointScenario() *Scenario {
	return &Scenario{Detector: DetectorConfig{Ranker: "nn", N: 1}}
}

// testWindow is three 1-D points where NN ranking makes sensor 3's
// point the unambiguous outlier.
func testWindow() []ingest.WireOutlier {
	return []ingest.WireOutlier{
		{Sensor: 1, Seq: 0, AtMS: 1000, Values: []float64{0.0}},
		{Sensor: 2, Seq: 0, AtMS: 2000, Values: []float64{0.1}},
		{Sensor: 3, Seq: 0, AtMS: 3000, Values: []float64{10.0}},
	}
}

func runCheckpoint(t *testing.T, f *fakeTarget) (CheckpointReport, error) {
	t.Helper()
	srv := httptest.NewServer(f.handler())
	t.Cleanup(srv.Close)
	target := Target{HTTP: srv.URL, Shards: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return target.checkpoint(ctx, checkpointScenario(), []string{"single"})
}

// A served answer that disagrees with the baseline over the served
// window is genuine inexactness: Match false, no fetch error.
func TestCheckpointInexactness(t *testing.T) {
	f := &fakeTarget{
		window:   testWindow(),
		outliers: testWindow()[:1], // sensor 1 is not the outlier
	}
	cp, err := runCheckpoint(t, f)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if cp.Match {
		t.Error("Match = true for an answer that disagrees with the baseline")
	}
	if cp.FetchError != "" {
		t.Errorf("FetchError = %q for a successful fetch", cp.FetchError)
	}
	if cp.Modes["single"] {
		t.Error(`Modes["single"] = true, want false`)
	}
}

// A matching answer: Match true, no fetch error.
func TestCheckpointExact(t *testing.T) {
	f := &fakeTarget{
		window:   testWindow(),
		outliers: testWindow()[2:], // sensor 3, the NN outlier
	}
	cp, err := runCheckpoint(t, f)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if !cp.Match {
		t.Error("Match = false for the baseline answer")
	}
	if cp.FetchError != "" {
		t.Errorf("FetchError = %q, want empty", cp.FetchError)
	}
}

// The flat scrape skips comments and garbage, and sums a labeled family
// under its base name: the barrier looks its counter up by base name, so
// a daemon that exported it per label would otherwise read as a constant
// 0 and a still-draining pipeline would pass for frozen.
func TestParseMetrics(t *testing.T) {
	got := parseMetrics(`# HELP innetd_readings_accepted_total Readings passing validation.
# TYPE innetd_readings_accepted_total counter
innetd_readings_accepted_total 100
innetd_sensor_queue_drops_total{sensor="1"} 3
innetd_sensor_queue_drops_total{sensor="2",note="a b"} 4
not a sample
`)
	want := map[string]float64{
		"innetd_readings_accepted_total":  100,
		"innetd_sensor_queue_drops_total": 7,
	}
	if len(got) != len(want) {
		t.Fatalf("parseMetrics = %v, want %v", got, want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

// A window fetch that fails (after retries) is an infrastructure error:
// the checkpoint reports FetchError and an error, and must NOT claim
// inexactness — nothing was compared.
func TestCheckpointFetchFailureIsNotMismatch(t *testing.T) {
	f := &fakeTarget{failWindow: true}
	cp, err := runCheckpoint(t, f)
	if err == nil {
		t.Fatal("checkpoint returned nil error for an unreachable window fetch")
	}
	if !strings.Contains(err.Error(), "window fetch") {
		t.Errorf("error %q does not identify the window fetch", err)
	}
	if cp.FetchError == "" {
		t.Error("FetchError empty for a failed fetch")
	}
	if !cp.Match {
		t.Error("Match = false for a failed fetch: fetch failures must not count as inexactness")
	}
	if f.windowCalls < 2 {
		t.Errorf("window fetch attempted %d times, want retries", f.windowCalls)
	}
}
