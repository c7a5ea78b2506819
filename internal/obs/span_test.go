package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceLogRingOrder(t *testing.T) {
	l := NewTraceLog(3)
	for i := 1; i <= 5; i++ {
		l.Record(Span{Trace: uint64(i), Op: OpQuery})
	}
	got := l.Snapshot(0, 0)
	if len(got) != 3 {
		t.Fatalf("snapshot length = %d, want 3", len(got))
	}
	for i, want := range []uint64{5, 4, 3} {
		if got[i].Trace != want {
			t.Fatalf("snapshot[%d].Trace = %d, want %d (newest first)", i, got[i].Trace, want)
		}
	}
	if l.Total() != 5 {
		t.Fatalf("Total = %d, want 5", l.Total())
	}
}

func TestTraceLogFilterAndLimit(t *testing.T) {
	l := NewTraceLog(16)
	for i := 0; i < 6; i++ {
		l.Record(Span{Trace: 0xaaaa, Op: OpMergeRound, Round: int32(i)})
		l.Record(Span{Trace: 0xbbbb, Op: OpMergeRound, Round: int32(i)})
	}
	only := l.Snapshot(0xaaaa, 0)
	if len(only) != 6 {
		t.Fatalf("filtered snapshot length = %d, want 6", len(only))
	}
	for _, s := range only {
		if s.Trace != 0xaaaa {
			t.Fatalf("filter leaked trace %x", s.Trace)
		}
	}
	if got := l.Snapshot(0xaaaa, 2); len(got) != 2 || got[0].Round != 5 {
		t.Fatalf("limited snapshot = %+v, want the 2 newest", got)
	}
}

// TestTraceLogDedupesRetries pins the retry contract: a span carrying a
// reqID records once per (trace, reqID, op) — an ARQ retransmit that
// re-executes server-side work must not double its span — while spans
// without a reqID (local work like enqueue/observe) never dedupe.
func TestTraceLogDedupesRetries(t *testing.T) {
	l := NewTraceLog(16)
	s := Span{Trace: 7, Op: OpLedger, ReqID: 42}
	l.Record(s)
	l.Record(s) // retry duplicate
	if got := l.Snapshot(7, 0); len(got) != 1 {
		t.Fatalf("retried reqID span recorded %d times, want 1", len(got))
	}
	// Same reqID, different op: a different logical event, kept.
	l.Record(Span{Trace: 7, Op: OpSufficient, ReqID: 42})
	// Same op, different trace: kept.
	l.Record(Span{Trace: 8, Op: OpLedger, ReqID: 42})
	if got := l.Snapshot(0, 0); len(got) != 3 {
		t.Fatalf("distinct keys collapsed: %d spans, want 3", len(got))
	}
	// reqID 0 = not request-driven: records every time.
	l.Record(Span{Trace: 7, Op: OpEnqueue})
	l.Record(Span{Trace: 7, Op: OpEnqueue})
	if got := l.Snapshot(0, 0); len(got) != 5 {
		t.Fatalf("reqID-0 spans deduped: %d spans, want 5", len(got))
	}
}

// TestTraceLogRecordZeroAlloc enforces the hot-path contract: without a
// sink, Record allocates nothing — it sits on the ingest drain and the
// per-round merge accounting.
func TestTraceLogRecordZeroAlloc(t *testing.T) {
	l := NewTraceLog(64)
	s := Span{Trace: 9, Op: OpEnqueue, Shard: "127.0.0.1:9101", Points: 12, Start: time.Now(), Dur: time.Millisecond}
	if n := testing.AllocsPerRun(1000, func() { l.Record(s) }); n != 0 {
		t.Fatalf("Record allocates %.1f times per span, want 0", n)
	}
	var req uint32
	if n := testing.AllocsPerRun(1000, func() {
		req++
		l.Record(Span{Trace: 9, Op: OpLedger, ReqID: req})
	}); n != 0 {
		t.Fatalf("deduped Record allocates %.1f times per span, want 0", n)
	}
}

func TestTraceLogSinkJSONL(t *testing.T) {
	var sb strings.Builder
	l := NewTraceLog(4)
	l.SetSink(&sb)
	l.Record(Span{Trace: 0xfeed, Op: OpSufficient, Round: 2, Hit: true, Err: "late"})
	line := strings.TrimSpace(sb.String())
	var w struct {
		Trace string `json:"trace"`
		Op    string `json:"op"`
		Round int32  `json:"round"`
		Hit   bool   `json:"hit"`
		Err   string `json:"err"`
	}
	if err := json.Unmarshal([]byte(line), &w); err != nil {
		t.Fatalf("sink line %q: %v", line, err)
	}
	if w.Trace != "000000000000feed" || w.Op != "sufficient" ||
		w.Round != 2 || !w.Hit || w.Err != "late" {
		t.Fatalf("sink line decoded to %+v", w)
	}
}

// TestTraceHandlerLimits pins the shared ring-serving contract both
// /debug/merges and /debug/traces ride on: default cap, ?limit=
// raises it only to the maximum, and ?trace= filters to one query.
func TestTraceHandlerLimits(t *testing.T) {
	l := NewTraceLog(2 * maxRingLimit)
	for i := 0; i < 2*maxRingLimit; i++ {
		l.Record(Span{Trace: uint64(1 + i%2), Op: OpObserve})
	}
	h := l.Handler()
	serve := func(url string) (uint64, []map[string]any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var body struct {
			Total uint64           `json:"total"`
			Spans []map[string]any `json:"spans"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		return body.Total, body.Spans
	}
	if total, spans := serve("/debug/traces"); total != uint64(2*maxRingLimit) || len(spans) != defaultRingLimit {
		t.Fatalf("default: total=%d spans=%d, want total=%d spans=%d", total, len(spans), 2*maxRingLimit, defaultRingLimit)
	}
	if _, spans := serve("/debug/traces?limit=10"); len(spans) != 10 {
		t.Fatalf("limit=10 served %d spans", len(spans))
	}
	if _, spans := serve("/debug/traces?limit=999999"); len(spans) != maxRingLimit {
		t.Fatalf("oversized limit served %d spans, want the %d cap", len(spans), maxRingLimit)
	}
	_, spans := serve("/debug/traces?trace=0000000000000001&limit=1024")
	if len(spans) != maxRingLimit {
		t.Fatalf("trace filter served %d spans", len(spans))
	}
	for _, s := range spans {
		if s["trace"] != "0000000000000001" {
			t.Fatalf("trace filter leaked %v", s["trace"])
		}
	}
}
