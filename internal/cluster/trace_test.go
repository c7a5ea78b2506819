package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"innet/internal/baseline"
	"innet/internal/obs"
	"innet/internal/protocol"
)

// wireSpan is the /debug/traces JSON shape the tests decode.
type wireSpan struct {
	Trace string `json:"trace"`
	Op    string `json:"op"`
	Shard string `json:"shard"`
	Err   string `json:"err"`
}

// fetchSpans GETs a /debug/traces URL and decodes the span list.
func fetchSpans(t *testing.T, url string) []wireSpan {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Total uint64     `json:"total"`
		Spans []wireSpan `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	return body.Spans
}

// opCount tallies spans by op name.
func opCount(spans []wireSpan) map[string]int {
	out := make(map[string]int)
	for _, s := range spans {
		out[s.Op]++
	}
	return out
}

// TestQueryTraceEndToEnd is the tracing acceptance pin: one compact
// query against a live 2-shard cluster yields, under a single trace ID,
// coordinator-side round spans at its /debug/traces and shard-side
// merge-session spans at each shard's /debug/traces. It also pins one ID
// per query: the merge session is the trace, so every query, round,
// session-create and sufficient span in either ring carries it, and no
// shard holds the session once the query is over.
func TestQueryTraceEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
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
	for _, err := range coord.IngestBatch(trace(61, sensorRange(10), 4)) {
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	for _, sh := range shards {
		if err := sh.svc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()
	resp, err := http.Get(coordSrv.URL + "/v1/outliers")
	if err != nil {
		t.Fatal(err)
	}
	var est WireMergedEstimate
	err = json.NewDecoder(resp.Body).Decode(&est)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if est.MergeMode != MergeCompact {
		t.Fatalf("query served by %q, want compact", est.MergeMode)
	}
	if est.Trace == "" || est.Trace == "0000000000000000" {
		t.Fatalf("query response carries no trace ID: %q", est.Trace)
	}

	spans := fetchSpans(t, coordSrv.URL+"/debug/traces?trace="+est.Trace)
	for _, s := range spans {
		if s.Trace != est.Trace {
			t.Fatalf("coordinator trace filter leaked span %+v", s)
		}
	}
	ops := opCount(spans)
	if ops["query"] != 1 || ops["merge_round"] == 0 {
		t.Fatalf("coordinator spans = %v, want one query span and ≥1 merge_round", ops)
	}

	for _, sh := range shards {
		shardSrv := httptest.NewServer(sh.svc.Handler())
		spans := fetchSpans(t, shardSrv.URL+"/debug/traces?trace="+est.Trace)
		shardSrv.Close()
		ops := opCount(spans)
		if ops["session_create"]+ops["sufficient"] == 0 {
			t.Fatalf("shard %s recorded no session spans for trace %s (got %v)", sh.addr, est.Trace, ops)
		}
		for _, s := range spans {
			if s.Trace != est.Trace {
				t.Fatalf("shard %s trace filter leaked span %+v", sh.addr, s)
			}
		}
	}

	// The whole rings, unfiltered: no span of the query's ops sits under
	// another ID.
	id, err := strconv.ParseUint(est.Trace, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	tally := func(where string, spans []obs.Span, ops ...obs.SpanOp) map[obs.SpanOp]int {
		t.Helper()
		n := make(map[obs.SpanOp]int)
		for _, s := range spans {
			if !slices.Contains(ops, s.Op) {
				continue
			}
			if s.Trace != id {
				t.Fatalf("%s: %s span under trace %016x, the query's is %s", where, s.Op, s.Trace, est.Trace)
			}
			n[s.Op]++
		}
		return n
	}
	if n := tally("coordinator", coord.Traces().Snapshot(0, 0), obs.OpQuery, obs.OpMergeRound); n[obs.OpQuery] != 1 || n[obs.OpMergeRound] == 0 {
		t.Fatalf("coordinator spans = %v, want one query span and ≥1 merge_round", n)
	}
	// A SUFFICIENT request longer than an empty body carried the
	// coordinator's delta.
	empty, err := protocol.SufficientBody{}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, sh := range shards {
		n := tally(sh.addr, sh.svc.Traces().Snapshot(0, 0), obs.OpSessionCreate, obs.OpSufficient)
		if n[obs.OpSessionCreate] != 1 || n[obs.OpSufficient] == 0 {
			t.Fatalf("shard %s spans = %v, want one session_create and ≥1 sufficient", sh.addr, n)
		}
		for _, s := range sh.svc.Traces().Snapshot(id, 0) {
			if s.Op == obs.OpSufficient && int(s.Bytes) > len(empty) {
				delivered++
			}
		}
		// The merge closed its connections as it ended, and each shard's
		// session with them.
		waitFor(t, 5*time.Second, "sessions released after the query", func() bool { return sh.srv.sessions.Load() == 0 })
	}
	if delivered == 0 {
		t.Fatal("no shard recorded a point-carrying sufficient span; the query delivered no candidates")
	}
}

// TestFallbackSpanSharesTrace kills a shard mid-query (its link is cut
// after the first SUFFICIENT response) and pins that the fallback
// event lands in the same trace as the compact rounds that failed: one
// /debug/traces lookup tells the whole story of the degraded query.
func TestFallbackSpanSharesTrace(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	coord, single, shards, proxies := mergeCluster(t, 2)
	feedBoth(t, ctx, coord, single, shards, trace(83, sensorRange(12), 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	proxies[1].setRule(cutAfterFirstSufficientResponse())
	merged, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Mode != MergeFull || !samePoints(merged.Outliers, want) {
		t.Fatalf("mid-query kill merge wrong: mode=%q %s != %s", merged.Mode, ids(merged.Outliers), ids(want))
	}

	spans := coord.Traces().Snapshot(merged.Trace, 0)
	var fallbacks, failedRounds, fullSnaps int
	for _, s := range spans {
		switch s.Op {
		case obs.OpMergeFallback:
			fallbacks++
		case obs.OpMergeRound:
			if s.Err != "" {
				failedRounds++
			}
		case obs.OpMergeFull:
			fullSnaps++
		}
	}
	if fallbacks != 1 {
		t.Fatalf("trace %016x holds %d merge_fallback spans, want 1", merged.Trace, fallbacks)
	}
	if failedRounds == 0 {
		t.Fatalf("trace %016x holds no failed merge_round span alongside the fallback", merged.Trace)
	}
	if fullSnaps == 0 {
		t.Fatalf("trace %016x holds no merge_full span for the fallback path", merged.Trace)
	}

	// /debug/merges groups the same spans: one session under the query's
	// trace showing the abandoned rounds, why they were abandoned, and
	// what the full-path rescue cost.
	sessions := coord.MergeSessions(0)
	if len(sessions) == 0 || sessions[0].Trace != traceHex(merged.Trace) {
		t.Fatalf("newest /debug/merges session is not trace %016x: %+v", merged.Trace, sessions)
	}
	sess := sessions[0]
	if sess.Requested != MergeCompact || sess.Final != MergeFull || sess.Quiesced != -1 {
		t.Fatalf("session modes = %q→%q quiesced=%d, want compact→full, never quiescent", sess.Requested, sess.Final, sess.Quiesced)
	}
	if sess.Fallback == "" {
		t.Fatal("fallen-back session shows no fallback_reason")
	}
	if sess.FullBytes != merged.PayloadBytes || sess.FullBytes == 0 {
		t.Fatalf("session full_bytes = %d, fallback answer moved %d", sess.FullBytes, merged.PayloadBytes)
	}
	viewFailed := 0
	for _, r := range sess.Rounds {
		for _, sh := range r.Shards {
			if sh.Err != "" {
				viewFailed++
			}
		}
	}
	if len(sess.Rounds) == 0 || viewFailed != failedRounds {
		t.Fatalf("session shows %d rounds with %d failed shard exchanges, spans hold %d", len(sess.Rounds), viewFailed, failedRounds)
	}
}

// TestFirstQueryTracedBeforeAnyProbe issues a compact query immediately
// after New, with the health loop too slow to have probed anything: the
// trace ID rides every frame unconditionally, so the shards must already
// hold session spans under the query's trace. (With per-shard capability
// negotiation this start-up window left the shards' rings empty.)
func TestFirstQueryTracedBeforeAnyProbe(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
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
		HealthInterval: time.Hour, // no probe ever lands during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	for _, err := range coord.IngestBatch(trace(29, sensorRange(10), 4)) {
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	for _, sh := range shards {
		if err := sh.svc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Mode != MergeCompact {
		t.Fatalf("query served by %q, want compact", merged.Mode)
	}
	for _, si := range coord.ShardInfos() {
		if !si.LastSeen.IsZero() {
			t.Fatalf("shard %s was probed; the test no longer covers the pre-probe window", si.Addr)
		}
	}
	for _, sh := range shards {
		ops := make(map[obs.SpanOp]int)
		for _, s := range sh.svc.Traces().Snapshot(merged.Trace, 0) {
			ops[s.Op]++
		}
		if ops[obs.OpSessionCreate] == 0 || ops[obs.OpSufficient] == 0 {
			t.Fatalf("shard %s holds %v under trace %016x, want session_create and sufficient spans", sh.addr, ops, merged.Trace)
		}
	}
}

// TestStatusEndpoint pins the /debug/status aggregate: shard map +
// health + per-shard probe state and build info in one snapshot.
func TestStatusEndpoint(t *testing.T) {
	coord, _, _, _ := mergeCluster(t, 1)
	waitFor(t, 15*time.Second, "every shard probed", func() bool {
		for _, si := range coord.ShardInfos() {
			if si.LastSeen.IsZero() {
				return false
			}
		}
		return true
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	var st WireStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.ShardsUp != 3 || st.ShardsTotal != 3 || len(st.Shards) != 3 {
		t.Fatalf("status = %+v, want ok with 3/3 shards", st)
	}
	for _, si := range st.Shards {
		if !si.Up {
			t.Fatalf("shard %s not up in status: %+v", si.Addr, si)
		}
		if si.LastRTTMS <= 0 {
			t.Fatalf("shard %s has no probe RTT: %+v", si.Addr, si)
		}
	}
	if st.Build.Go == "" {
		t.Fatalf("build info missing Go version: %+v", st.Build)
	}
}
