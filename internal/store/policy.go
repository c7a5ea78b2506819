package store

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"innet/internal/obs"
)

// Policy is the durability policy innetd's fleet runs over a Store. The
// engine supplies only a snapshot function; Policy owns the rest:
//
//   - Appends are counted. Once every appends have gone in since the last
//     compaction, one background Compact runs (single flight).
//   - A successful Compact resets the count; a failed one leaves it, so
//     the next append retries instead of waiting a whole cycle.
//   - Records appended while the snapshot is being taken are folded into
//     the compacted state. The truncation that follows
//     therefore never erases an acknowledged append: every one is in the
//     snapshot, in the fold, or in the fresh WAL after it.
//   - Appends wait only while the store's Compact itself runs.
//
// A nil *Policy (no store configured) accepts every call and does nothing.
type Policy struct {
	st       Store
	every    uint64
	traces   *obs.TraceLog
	snapshot func(context.Context) (State, error)

	mu      sync.Mutex // orders appends against the store's Compact; guards tail and tailing
	tail    []Record   // appended since the in-flight snapshot began
	tailing bool       // a snapshot is in flight

	compactMu  sync.Mutex // serializes whole Compact calls
	since      atomic.Uint64
	compacting atomic.Bool
	errs       atomic.Uint64
}

// NewPolicy runs the policy over st, compacting after every appends. Each
// append is recorded as an OpWALAppend span in traces, and a store that
// times its operations (File does) reports them to timing. snapshot
// returns the engine's live durable state. A nil st returns a nil Policy.
func NewPolicy(st Store, every int, traces *obs.TraceLog, timing func(op string, d time.Duration),
	snapshot func(context.Context) (State, error)) *Policy {
	if st == nil {
		return nil
	}
	if t, ok := st.(interface {
		SetTiming(func(op string, d time.Duration))
	}); ok {
		t.SetTiming(timing)
	}
	return &Policy{st: st, every: uint64(every), traces: traces, snapshot: snapshot}
}

// AppendReadings appends window records, hands them to an in-flight
// snapshot's fold, records the append's span under trace, and starts a
// background compaction under ctx once the count reaches the threshold. A
// failed append is counted in Errors, not fatal: the engine keeps serving
// from memory, and the gap closes at the next successful compaction.
func (p *Policy) AppendReadings(ctx context.Context, trace uint64, recs []Record) error {
	if p == nil || len(recs) == 0 {
		return nil
	}
	start := time.Now()
	p.mu.Lock()
	if p.tailing {
		p.tail = append(p.tail, recs...)
	}
	err := p.st.AppendReadings(recs)
	p.mu.Unlock()
	span := obs.Span{Trace: trace, Op: obs.OpWALAppend, Points: int32(len(recs)), Start: start, Dur: time.Since(start)}
	if err != nil {
		span.Err = err.Error()
	}
	p.traces.Record(span)
	if err != nil {
		p.errs.Add(1)
		return err
	}
	if p.since.Add(uint64(len(recs))) >= p.every && p.compacting.CompareAndSwap(false, true) {
		go func() {
			defer p.compacting.Store(false)
			_ = p.Compact(ctx)
		}()
	}
	return nil
}

// Compact rewrites the store from the engine's snapshot plus whatever was
// appended while the snapshot was being taken, and truncates the WAL.
// Appends wait only for the store's Compact, not for the snapshot.
func (p *Policy) Compact(ctx context.Context) error {
	if p == nil {
		return nil
	}
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	p.mu.Lock()
	p.tail, p.tailing = nil, true
	p.mu.Unlock()
	snap, err := p.snapshot(ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	tail := p.tail
	p.tail, p.tailing = nil, false
	if err != nil {
		return err
	}
	if err := p.st.Compact(append(snap.Records, tail...), nil); err != nil {
		p.errs.Add(1)
		return err
	}
	p.since.Store(0)
	return nil
}

// Errors counts failed appends and failed store compactions.
func (p *Policy) Errors() uint64 {
	if p == nil {
		return 0
	}
	return p.errs.Load()
}
