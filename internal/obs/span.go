package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Request-scoped tracing: the span ring answers "what did THIS query
// do, on both sides of the shard wire". The coordinator mints a 64-bit
// trace ID per query and stamps it into every shard-control frame, and
// both daemons record fixed-size spans into a TraceLog — a flight
// recorder served at /debug/traces and teed to the -trace-file JSONL
// sink. It is the only per-query record: the coordinator's
// /debug/merges is a grouping of these spans, not a second log.
// Recording sits on the ingest and merge hot paths, so it follows the
// histogram contract: no locks held across I/O, and zero allocations per
// Record (pinned by test).

// SpanOp names what a span measured. The set is closed — op strings are
// rendered from this enum, never from caller input — so span vocabulary
// stays as bounded as metric label cardinality.
type SpanOp uint8

// Span operations, both daemons.
const (
	OpQuery         SpanOp = iota + 1 // coordinator: one merged query, end to end
	OpMergeRound                      // coordinator: one compact round against one shard
	OpMergeFallback                   // coordinator: compact session abandoned
	OpMergeFull                       // coordinator: full-window snapshot of one shard
	OpIngestBatch                     // coordinator: one routed ingest batch
	OpWALAppend                       // either: one durable-store append
	OpReadings                        // shard: one routed READINGS frame
	OpSessionCreate                   // shard: merge session opened (Hit = source cache reuse)
	OpSufficient                      // shard: one SUFFICIENT round served
	OpEnqueue                         // shard: queue wait of a drained batch head
	OpObserve                         // shard: one batch-observe ranking pass
)

// String implements fmt.Stringer.
func (o SpanOp) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpMergeRound:
		return "merge_round"
	case OpMergeFallback:
		return "merge_fallback"
	case OpMergeFull:
		return "merge_full"
	case OpIngestBatch:
		return "ingest_batch"
	case OpWALAppend:
		return "wal_append"
	case OpReadings:
		return "readings"
	case OpSessionCreate:
		return "session_create"
	case OpSufficient:
		return "sufficient"
	case OpEnqueue:
		return "enqueue"
	case OpObserve:
		return "observe"
	default:
		return "unknown"
	}
}

// Span is one recorded event of one traced query. Every field is fixed
// size (strings are headers into already-live memory), so passing and
// storing a Span never allocates.
type Span struct {
	Trace  uint64        // query trace ID; 0 = untraced work
	Op     SpanOp        // what happened
	Shard  string        // peer address, "" for local work
	Round  int32         // merge round, meaningful for merge ops
	Points int32         // points moved/observed
	Bytes  int32         // payload bytes moved
	Hit    bool          // cache hit, per op docs
	Err    string        // failure, "" on success
	Start  time.Time     // when the spanned work began
	Dur    time.Duration // how long it took
}

// spanWire is the JSON shape of a Span: 64-bit IDs as hex strings
// (JSON numbers lose precision past 2^53), the op by name, and
// durations in float milliseconds.
type spanWire struct {
	Trace   string  `json:"trace"`
	Op      string  `json:"op"`
	Shard   string  `json:"shard,omitempty"`
	Round   int32   `json:"round"`
	Points  int32   `json:"points,omitempty"`
	Bytes   int32   `json:"bytes,omitempty"`
	Hit     bool    `json:"hit,omitempty"`
	Err     string  `json:"err,omitempty"`
	StartMS int64   `json:"start_unix_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// MarshalJSON implements json.Marshaler.
func (s Span) MarshalJSON() ([]byte, error) {
	w := spanWire{
		Trace:   fmt.Sprintf("%016x", s.Trace),
		Op:      s.Op.String(),
		Shard:   s.Shard,
		Round:   s.Round,
		Points:  s.Points,
		Bytes:   s.Bytes,
		Hit:     s.Hit,
		Err:     s.Err,
		StartMS: s.Start.UnixMilli(),
		DurMS:   float64(s.Dur) / float64(time.Millisecond),
	}
	return json.Marshal(w)
}

// TraceLog is a bounded flight-recorder ring of spans: oldest evicted
// first, snapshots newest first, optionally teeing each record as one
// JSON line to a sink.
type TraceLog struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
	sink  io.Writer
}

// NewTraceLog returns a ring holding the last capacity spans.
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{buf: make([]Span, 0, capacity)}
}

// SetSink tees every subsequent Record to w as one JSON line. Write
// errors are silently dropped — tracing must never fail a query. A
// sink takes Record off its zero-allocation path (the JSON encoding
// allocates); the tee is an opt-in flag, the ring is not.
func (l *TraceLog) SetSink(w io.Writer) {
	l.mu.Lock()
	l.sink = w
	l.mu.Unlock()
}

// Record appends one span, evicting the oldest past capacity.
func (l *TraceLog) Record(s Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, s)
	} else {
		l.buf[l.next] = s
		l.next = (l.next + 1) % cap(l.buf)
	}
	l.total++
	if l.sink != nil {
		if line, err := json.Marshal(s); err == nil {
			l.sink.Write(append(line, '\n'))
		}
	}
}

// Snapshot returns up to limit held spans, newest first, keeping only
// those with the given trace ID when trace is nonzero. limit <= 0
// means no cap beyond the ring itself.
func (l *TraceLog) Snapshot(trace uint64, limit int) []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Span
	for i := len(l.buf) - 1; i >= 0; i-- {
		s := l.buf[(l.next+i)%len(l.buf)]
		if trace != 0 && s.Trace != trace {
			continue
		}
		out = append(out, s)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Total returns how many spans have ever been recorded.
func (l *TraceLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Handler serves the ring as {"total": N, "spans": [newest, ...]},
// filtered to one query with ?trace=<hex id> and capped by ?limit=.
func (l *TraceLog) Handler() http.Handler {
	return RingHandler("spans", l.Total, func(r *http.Request, limit int) any {
		var trace uint64
		if s := r.URL.Query().Get("trace"); s != "" {
			trace, _ = strconv.ParseUint(s, 16, 64)
		}
		return l.Snapshot(trace, limit)
	})
}
