package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"innet/internal/obs"
)

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelPairRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// lintExposition validates one /metrics page against the Prometheus
// text-format rules the obs registry promises: well-formed names and
// labels, a HELP+TYPE header before every family's samples, contiguous
// families, and no duplicate series.
func lintExposition(t *testing.T, page, body string) {
	t.Helper()
	types := make(map[string]string) // family → declared type
	seenSeries := make(map[string]bool)
	doneFamilies := make(map[string]bool)
	current := ""

	family := func(name string) string {
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, s); base != name && types[base] == "histogram" {
				return base
			}
		}
		return name
	}

	for n, line := range strings.Split(body, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		where := page + " line " + strconv.Itoa(n+1)
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRE.MatchString(name) {
				t.Errorf("%s: malformed HELP: %q", where, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRE.MatchString(name) {
				t.Errorf("%s: malformed TYPE: %q", where, line)
				continue
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("%s: unknown metric type %q", where, kind)
			}
			if _, dup := types[name]; dup {
				t.Errorf("%s: family %s declared twice", where, name)
			}
			types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}

		// Sample line: name[{labels}] value
		name, rest := line, ""
		var labels []string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Errorf("%s: unbalanced braces: %q", where, line)
				continue
			}
			name = line[:i]
			labels = strings.Split(line[i+1:j], ",")
			rest = strings.TrimSpace(line[j+1:])
		} else {
			var ok bool
			if name, rest, ok = strings.Cut(line, " "); !ok {
				t.Errorf("%s: sample without value: %q", where, line)
				continue
			}
		}
		if !metricNameRE.MatchString(name) {
			t.Errorf("%s: bad metric name %q", where, name)
		}
		for _, l := range labels {
			if !labelPairRE.MatchString(l) {
				t.Errorf("%s: bad label pair %q", where, l)
			}
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
			t.Errorf("%s: bad sample value in %q: %v", where, line, err)
		}

		fam := family(name)
		if _, ok := types[fam]; !ok {
			t.Errorf("%s: series %s has no preceding # TYPE", where, name)
		}
		if fam != current {
			if doneFamilies[fam] {
				t.Errorf("%s: family %s reappears after other families (not contiguous)", where, fam)
			}
			if current != "" {
				doneFamilies[current] = true
			}
			current = fam
		}
		key := name
		if len(labels) > 0 {
			key += "{" + strings.Join(labels, ",") + "}"
		}
		if seenSeries[key] {
			t.Errorf("%s: duplicate series %s", where, key)
		}
		seenSeries[key] = true
	}
	if len(seenSeries) == 0 {
		t.Errorf("%s: no samples at all", page)
	}
}

// TestExpositionLint scrapes both daemons' /metrics in-process — a shard
// innetd and a coordinator that has served a compact merge, so the
// histogram vec children and per-shard labeled series are populated —
// and lint-checks every line.
func TestExpositionLint(t *testing.T) {
	sh := startShard(t, "")
	t.Cleanup(sh.stop)
	coord, err := New(Config{
		Detector:       clusterDetCfg,
		Shards:         []string{sh.addr},
		QueryTimeout:   15 * time.Second,
		HealthInterval: 50 * time.Millisecond,
		HealthMisses:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	rs := trace(42, sensorRange(12), 4)
	for _, err := range coord.IngestBatch(rs) {
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	if err := sh.svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.MergedEstimateMode(ctx, MergeCompact); err != nil {
		t.Fatalf("compact merge: %v", err)
	}
	if _, err := coord.MergedEstimateMode(ctx, MergeFull); err != nil {
		t.Fatalf("full merge: %v", err)
	}

	coordSrv := httptest.NewServer(coord.Handler())
	t.Cleanup(coordSrv.Close)
	shardSrv := httptest.NewServer(sh.svc.Handler())
	t.Cleanup(shardSrv.Close)

	for _, tc := range []struct{ page, url string }{
		{"coordinator", coordSrv.URL + "/metrics"},
		{"shard", shardSrv.URL + "/metrics"},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
			t.Errorf("%s: Content-Type = %q, want %q", tc.page, ct, obs.ContentType)
		}
		lintExposition(t, tc.page, string(raw))
	}

	// Both served modes must appear as vec children on the coordinator.
	resp, err := http.Get(coordSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`innetcoord_query_latency_seconds_count{mode="compact"} 1`,
		`innetcoord_query_latency_seconds_count{mode="full"} 1`,
		`innetcoord_rpc_latency_seconds_bucket{op="sufficient",le=`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}
}

// TestCompactTraceBytesMatchCounter pins the acceptance invariant on the
// span-derived /debug/merges view: the newest session's total_bytes, the
// sum of its per-round (and per-shard) bytes, MergeResult.PayloadBytes
// and the innetcoord_merge_bytes_total delta the query caused are all the
// same number — by construction, since the view only re-adds the bytes
// the round spans were recorded with.
func TestCompactTraceBytesMatchCounter(t *testing.T) {
	var shards []*testShard
	var addrs []string
	for i := 0; i < 2; i++ {
		sh := startShard(t, "")
		t.Cleanup(sh.stop)
		shards = append(shards, sh)
		addrs = append(addrs, sh.addr)
	}
	coord, err := New(Config{
		Detector:       clusterDetCfg,
		Shards:         addrs,
		QueryTimeout:   15 * time.Second,
		HealthInterval: 50 * time.Millisecond,
		HealthMisses:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	rs := trace(7, sensorRange(16), 5)
	for _, err := range coord.IngestBatch(rs) {
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	for _, sh := range shards {
		if err := sh.svc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	before := coord.mergeBytes.Load()
	res, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil {
		t.Fatalf("compact merge: %v", err)
	}
	if res.Mode != MergeCompact {
		t.Fatalf("merge served by %q, want compact", res.Mode)
	}
	delta := int(coord.mergeBytes.Load() - before)

	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/debug/merges")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Total  uint64         `json:"total"`
		Merges []MergeSession `json:"merges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || len(page.Merges) != 1 {
		t.Fatalf("/debug/merges holds total=%d, %d sessions after one compact query, want 1/1", page.Total, len(page.Merges))
	}
	tr := page.Merges[0]
	if tr.Trace != traceHex(res.Trace) {
		t.Fatalf("session trace %s, query trace %016x", tr.Trace, res.Trace)
	}
	if tr.Requested != MergeCompact || tr.Final != MergeCompact || tr.Fallback != "" || tr.FullBytes != 0 {
		t.Fatalf("newest session %q→%q fallback=%q full_bytes=%d, want a clean compact session",
			tr.Requested, tr.Final, tr.Fallback, tr.FullBytes)
	}
	summed := 0
	for _, r := range tr.Rounds {
		perShard := 0
		for _, sh := range r.Shards {
			perShard += sh.Bytes
		}
		if len(r.Shards) != len(shards) || perShard != r.Bytes {
			t.Errorf("round %d: %d shards summing to %d bytes, round bytes = %d", r.Round, len(r.Shards), perShard, r.Bytes)
		}
		summed += r.Bytes
	}
	if summed != tr.TotalBytes {
		t.Errorf("sum of per-round bytes = %d, session total_bytes = %d", summed, tr.TotalBytes)
	}
	if tr.TotalBytes != delta {
		t.Errorf("session total_bytes = %d, innetcoord_merge_bytes_total delta = %d", tr.TotalBytes, delta)
	}
	if tr.TotalBytes != res.PayloadBytes {
		t.Errorf("session total_bytes = %d, MergeResult.PayloadBytes = %d", tr.TotalBytes, res.PayloadBytes)
	}
	if len(tr.Rounds) != res.Rounds || tr.Quiesced != res.Rounds-1 {
		t.Errorf("quiesced_round = %d with %d rounds (query drove %d), want the last round", tr.Quiesced, len(tr.Rounds), res.Rounds)
	}

	// A full-mode query is not an Algorithm 1 session: the view ignores it.
	if _, err := coord.MergedEstimateMode(ctx, MergeFull); err != nil {
		t.Fatalf("full merge: %v", err)
	}
	if got := coord.MergeSessions(0); len(got) != 1 {
		t.Errorf("view holds %d sessions after a full-mode query, want still 1", len(got))
	}
}
