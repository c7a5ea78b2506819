package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
	"innet/internal/ingest"
)

// Target is the system under load.
type Target struct {
	HTTP      string   // base URL of the front door (innetd or innet-coord)
	UDP       string   // host:port of its line-protocol listener
	ShardHTTP []string // shard innetd HTTP bases (the barrier flushes each)
	Cluster   bool     // true: coordinator; false: single innetd
	Shards    int
}

// httpClient bounds every evaluator request; merge queries against a
// loaded cluster can take a full query timeout.
var httpClient = &http.Client{Timeout: 10 * time.Second}

// DetectTarget probes httpURL and classifies it: a coordinator's
// /healthz reports shard counts, an innetd's reports sensors only.
func DetectTarget(httpURL, udp string, shardHTTP []string) (Target, error) {
	resp, err := httpClient.Get(httpURL + "/healthz")
	if err != nil {
		return Target{}, fmt.Errorf("loadgen: probe %s: %w", httpURL, err)
	}
	defer resp.Body.Close()
	var health struct {
		ShardsTotal *int `json:"shards_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return Target{}, fmt.Errorf("loadgen: probe %s: %w", httpURL, err)
	}
	t := Target{HTTP: httpURL, UDP: udp, ShardHTTP: shardHTTP, Shards: 1}
	if health.ShardsTotal != nil {
		t.Cluster = true
		t.Shards = *health.ShardsTotal
	}
	return t, nil
}

// queryURL builds the outlier query for one merge mode.
func (t Target) queryURL(mode string, window bool) string {
	u := t.HTTP + "/v1/outliers"
	var q []string
	if t.Cluster && (mode == "compact" || mode == "full") {
		q = append(q, "merge="+mode)
	}
	if window {
		q = append(q, "window=1")
	}
	if len(q) > 0 {
		u += "?" + strings.Join(q, "&")
	}
	return u
}

// outlierReply is what a checkpoint reads of the innetd and coordinator
// responses.
type outlierReply struct {
	Outliers []ingest.WireOutlier `json:"outliers"`
	Window   []ingest.WireOutlier `json:"window"`
}

func getJSON(ctx context.Context, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("loadgen: GET %s: %s: %s", url, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// scrapeMetrics fetches a Prometheus-text /metrics page as name → value.
func scrapeMetrics(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body)), nil
}

// parseMetrics flattens Prometheus text format into name → value.
// Comments and unparsable lines are skipped; labeled series are summed
// under their base name, so a per-shard or per-sensor counter reads as
// its fleet-wide total.
func parseMetrics(body string) map[string]float64 {
	flat := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 {
			// Label values may hold spaces: the sample follows the brace.
			name, value = line[:i], line[strings.LastIndexByte(line, '}')+1:]
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			continue
		}
		flat[name] += f
	}
	return flat
}

// barrier freezes the target's ingestion pipeline: first the in-flight
// datagrams (poll the accepted/routed counter until it stops moving —
// the firehose has already drained, but the kernel socket buffer and
// the listener goroutine lag it), then the per-sensor queues and the
// mesh (POST /v1/flush on every ingesting daemon). After barrier
// returns, the target's windows hold exactly the readings that survived
// the segment, and a window fetch is comparable against
// baseline.Compute.
func (t Target) barrier(ctx context.Context) error {
	counter := "innetd_readings_accepted_total"
	base := []string{t.HTTP}
	if t.Cluster {
		counter = "innetcoord_readings_routed_total"
	}
	prev := -1.0
	for stable := 0; stable < 2; {
		if err := ctx.Err(); err != nil {
			return err
		}
		m, err := scrapeMetrics(ctx, t.HTTP)
		if err != nil {
			return err
		}
		cur := m[counter]
		if cur == prev {
			stable++
		} else {
			stable, prev = 0, cur
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(150 * time.Millisecond):
		}
	}
	if t.Cluster {
		base = t.ShardHTTP
	}
	for _, b := range base {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b+"/v1/flush", nil)
		if err != nil {
			return err
		}
		resp, err := httpClient.Do(req)
		if err != nil {
			return fmt.Errorf("loadgen: flush %s: %w", b, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: flush %s: %s", b, resp.Status)
		}
	}
	return nil
}

// pointKey identifies a point across the wire and the local
// recomputation.
type pointKey struct {
	Sensor uint16
	Seq    uint32
}

func wireToPoints(ws []ingest.WireOutlier) []core.Point {
	pts := make([]core.Point, 0, len(ws))
	for _, w := range ws {
		pts = append(pts, core.NewPoint(core.NodeID(w.Sensor), w.Seq,
			time.Duration(w.AtMS)*time.Millisecond, w.Values...))
	}
	return pts
}

func keySet(ws []ingest.WireOutlier) map[pointKey]bool {
	out := make(map[pointKey]bool, len(ws))
	for _, w := range ws {
		out[pointKey{w.Sensor, w.Seq}] = true
	}
	return out
}

// getJSONRetry is getJSON with a short retry ladder: a checkpoint fetch
// that hits a transient hiccup (connection reset during a restart drill,
// one lost UDP merge round) must not masquerade as an exactness verdict.
func getJSONRetry(ctx context.Context, url string, into any) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			}
		}
		if err = getJSON(ctx, url, into); err == nil {
			return nil
		}
	}
	return err
}

// checkpoint runs one exactness checkpoint: barrier, fetch the window
// the target computed over, recompute the answer with baseline.Compute,
// and diff every queried mode's served answer against it.
//
// Failure taxonomy matters here: a fetch that errors out after retries
// is an infrastructure failure — it is recorded in cp.FetchError and
// returned as an error, and never folded into cp.Match, which reports
// only genuine inexactness (a served answer that disagrees with the
// baseline over the window the target itself handed us).
func (t Target) checkpoint(ctx context.Context, sc *Scenario, modes []string) (CheckpointReport, error) {
	cp := CheckpointReport{Modes: map[string]bool{}, Match: true}
	if err := t.barrier(ctx); err != nil {
		cp.FetchError = err.Error()
		return cp, err
	}

	// The window union, from the authoritative full path.
	var full outlierReply
	mode := "full"
	if !t.Cluster {
		mode = "single"
	}
	if err := getJSONRetry(ctx, t.queryURL(mode, true), &full); err != nil {
		err = fmt.Errorf("loadgen: checkpoint window fetch: %w", err)
		cp.FetchError = err.Error()
		return cp, err
	}
	cp.WindowPoints = len(full.Window)

	// The centralized ground truth over the same window.
	ranker, err := sc.Ranker()
	if err != nil {
		return cp, err
	}
	expected := baseline.Compute(ranker, sc.Detector.N, wireToPoints(full.Window))
	want := make(map[pointKey]bool, len(expected))
	for _, p := range expected {
		want[pointKey{uint16(p.ID.Origin), p.ID.Seq}] = true
		cp.Expected = append(cp.Expected, fmt.Sprintf("%d/%d", p.ID.Origin, p.ID.Seq))
	}
	sort.Strings(cp.Expected)

	sameSet := func(got map[pointKey]bool) bool {
		if len(got) != len(want) {
			return false
		}
		for k := range got {
			if !want[k] {
				return false
			}
		}
		return true
	}

	for _, m := range modes {
		var reply outlierReply
		if err := getJSONRetry(ctx, t.queryURL(m, false), &reply); err != nil {
			err = fmt.Errorf("loadgen: checkpoint query %s: %w", m, err)
			cp.FetchError = err.Error()
			return cp, err
		}
		ok := sameSet(keySet(reply.Outliers))
		cp.Modes[m] = ok
		if !ok {
			cp.Match = false
		}
	}
	// The full window fetch above already carried its own answer; hold
	// it to the same standard even when "full" is not a queried mode.
	if !sameSet(keySet(full.Outliers)) {
		cp.Match = false
		cp.Modes[mode+"(window-fetch)"] = false
	}
	return cp, nil
}
