package store

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
)

// Policy is the one durability policy both daemons run over a Store: the
// shard fleet over its window records, the coordinator over its identity
// floors. Each engine supplies only a snapshot function; Policy owns the
// rest:
//
//   - Appends are counted. Once every appends have gone in since the last
//     compaction, one background Compact runs (single flight).
//   - A successful Compact resets the count; a failed one leaves it, so
//     the next append retries instead of waiting a whole cycle.
//   - Records and identities appended while the snapshot is being taken
//     are folded into the compacted state. The truncation that follows
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
	tail    State      // appended since the in-flight snapshot began
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

// AppendReadings appends window records; see append.
func (p *Policy) AppendReadings(ctx context.Context, trace uint64, recs []Record) error {
	if p == nil || len(recs) == 0 {
		return nil
	}
	return p.append(ctx, trace, State{Records: recs}, func() error { return p.st.AppendReadings(recs) })
}

// PutIdentities appends identity floors; see append.
func (p *Policy) PutIdentities(ctx context.Context, trace uint64, ids []Identity) error {
	if p == nil || len(ids) == 0 {
		return nil
	}
	return p.append(ctx, trace, State{Identities: ids}, func() error { return p.st.PutIdentities(ids) })
}

// append runs one store append, hands it to an in-flight snapshot's fold,
// records its span under trace, and starts a background compaction under
// ctx once the count reaches the threshold. A failed append is counted in
// Errors, not fatal: the engine keeps serving from memory, and the gap
// closes at the next successful compaction.
func (p *Policy) append(ctx context.Context, trace uint64, add State, write func() error) error {
	start := time.Now()
	p.mu.Lock()
	if p.tailing {
		p.tail.Records = append(p.tail.Records, add.Records...)
		p.tail.Identities = append(p.tail.Identities, add.Identities...)
	}
	err := write()
	p.mu.Unlock()
	n := len(add.Records) + len(add.Identities)
	span := obs.Span{Trace: trace, Op: obs.OpWALAppend, Points: int32(n), Start: start, Dur: time.Since(start)}
	if err != nil {
		span.Err = err.Error()
	}
	p.traces.Record(span)
	if err != nil {
		p.errs.Add(1)
		return err
	}
	if p.since.Add(uint64(n)) >= p.every && p.compacting.CompareAndSwap(false, true) {
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
	p.tail, p.tailing = State{}, true
	p.mu.Unlock()
	snap, err := p.snapshot(ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	tail := p.tail
	p.tail, p.tailing = State{}, false
	if err != nil {
		return err
	}
	recs := append(snap.Records, tail.Records...)
	if err := p.st.Compact(recs, foldIdentities(snap.Identities, tail.Identities)); err != nil {
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

// foldIdentities raises the snapshot's floors by the ones appended while
// it was taken, keeping one floor per sensor.
func foldIdentities(snap, tail []Identity) []Identity {
	if len(tail) == 0 {
		return snap
	}
	byID := make(map[core.NodeID]Identity, len(snap)+len(tail))
	for _, id := range append(snap, tail...) {
		mergeIdentity(byID, id)
	}
	out := make([]Identity, 0, len(byID))
	for _, id := range byID {
		out = append(out, id)
	}
	return out
}
