package cluster

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
	"innet/internal/protocol"
)

// Compact cluster merge: the coordinator runs the paper's Algorithm 1
// iteratively against the shards instead of unioning window snapshots.
// The coordinator is a data-less node on a star topology; each shard is
// a node whose dataset is its frozen window snapshot. Rounds exchange
// Eq. (2) sufficient-set deltas against per-link shared ledgers:
//
//	round r: coordinator → shard   SUFFICIENT(session, r) carrying
//	                               Z_c \ ledger_s, the coordinator's
//	                               sufficient delta over its candidate
//	                               set C
//	         shard → coordinator   the shard's sufficient delta over
//	                               P_s ∪ received, against the ledger
//
// Each round is one request/response exchange per shard on the
// connection the session holds, the star's version of Algorithm 1's one
// packet M per link per reaction over a link that delivers in order.
//
// When a full round moves no point in either direction the exchange is
// quiescent, and by the paper's Lemma 3 the coordinator's On(C) equals
// On over the union of all shard windows — the same answer the
// full-window path computes by shipping every window. Per round the
// payload is O(estimate + support), not O(window); see DESIGN.md for
// the regime analysis and the fallback rules.

// Merge modes selectable per query via MergedEstimateMode and the
// ?merge= query parameter; compact is the default.
const (
	// MergeCompact runs the iterative Algorithm 1 exchange and falls
	// back to MergeFull when a shard cannot play (its connection breaks
	// or stalls mid-query) or the round budget runs out.
	MergeCompact = "compact"
	// MergeFull ships every shard's window snapshot and computes On
	// over the union.
	MergeFull = "full"
)

// mergeRounds bounds one compact merge's iteration count before it falls
// back to the full-window path.
const mergeRounds = 16

// errMergeRounds reports a compact merge that did not converge within
// the round budget.
var errMergeRounds = errors.New("cluster: compact merge round budget exhausted")

// errMergeMode reports a merge mode other than MergeCompact and
// MergeFull; the HTTP handler answers it with 400.
var errMergeMode = errors.New("cluster: unknown merge mode")

// traceIDGen mints trace IDs, and a compact merge's session ID is its
// query's trace ID, so a trace found in either side's span ring names
// one query. A bare rand.Uint64() per query makes two queries sharing an
// ID merely improbable; salting a monotone counter makes it impossible
// within a process: the salt is fixed at startup and the counter never
// repeats, so IDs are pairwise distinct for the life of the coordinator
// (while the salt still keeps two coordinators sharing a shard from
// walking the same ID sequence).
type traceIDGen struct {
	salt uint64
	seq  atomic.Uint64
}

func newTraceIDGen() *traceIDGen { return &traceIDGen{salt: rand.Uint64()} }

// next returns an ID that never repeats for this generator.
func (g *traceIDGen) next() uint64 { return g.salt ^ g.seq.Add(1) }

// compactResult carries what a compact merge learned, converged or not.
// payload is the sum of the Bytes on the query's OpMergeRound spans —
// one addition feeds both — so the /debug/merges view's total_bytes, the
// MergeResult and the innetcoord_merge_bytes_total delta cannot disagree.
type compactResult struct {
	outliers []core.Point
	cand     *core.Set // the coordinator's accumulated candidate set C
	rounds   int
	payload  int // SUFFICIENT payload bytes exchanged, both directions
}

// compactMerge drives one compact-merge session against the targets. It
// returns an error — and the rounds/payload spent — when any target
// fails an exchange (the caller falls back to the full-window path) or
// the round budget is exhausted. On success the result is exact for the
// union of the targets' windows. trace is the query's trace ID and the
// session's ID: it rides every merge frame, in the header and in the
// body's session field, and every round records one coordinator-side
// span per shard. The merge holds one connection per shard for all of
// its rounds: the shard keeps the session on that connection.
func (c *Coordinator) compactMerge(ctx context.Context, targets []*shardState, trace uint64) (compactResult, error) {
	cand := core.NewSet()
	ledgers := make([]*core.Set, len(targets))
	for i := range ledgers {
		ledgers[i] = core.NewSet()
	}
	// The merge's connections are closed when it ends, and with them
	// each shard's session: a shard holds a session only while its merge
	// runs.
	conns := make([]*ctlConn, len(targets))
	defer func() {
		for _, cc := range conns {
			if cc != nil {
				cc.broken = true
				c.client.put(cc)
			}
		}
	}()
	res := compactResult{cand: cand}

	for round := 0; round < mergeRounds; round++ {
		res.rounds++
		// The coordinator's side of the round: its sufficient delta over
		// C per link, computed sequentially (C is estimate-sized) so the
		// shared merge source is only read concurrently, never built.
		var src *core.MergeSource
		if cand.Len() > 0 {
			src = core.NewMergeSource(c.cfg.Detector.Ranker, c.cfg.Detector.N, cand.Points())
		}
		deltas := make([][]core.Point, len(targets))
		quiet := true
		for i := range targets {
			if src != nil {
				deltas[i] = src.Delta(ledgers[i])
				if len(deltas[i]) > 0 {
					quiet = false
				}
			}
		}

		// Network phase, fanned out per shard: the coordinator's delta
		// rides in the round's SUFFICIENT request and the answer is the
		// shard's round delta. A round is never re-sent: a failed one
		// ends the session.
		type reply struct {
			pts   []core.Point
			bytes int // SUFFICIENT payload sent and received
			start time.Time
			rtt   time.Duration
			err   error
		}
		replies := make([]reply, len(targets))
		var wg sync.WaitGroup
		for i, st := range targets {
			wg.Add(1)
			go func(i int, st *shardState) {
				defer wg.Done()
				rep := &replies[i]
				rep.start = time.Now()
				defer func() { rep.rtt = time.Since(rep.start) }()
				if conns[i] == nil {
					if conns[i], rep.err = c.client.get(ctx, st.addr, protocol.FrameSufficient); rep.err != nil {
						return
					}
				}
				body := protocol.SufficientBody{Session: trace, Round: uint16(round), Points: deltas[i]}
				rep.pts, rep.bytes, rep.err = c.client.sufficient(ctx, conns[i], body)
			}(i, st)
		}
		wg.Wait()

		// Account the whole round — every shard's bytes, failed or not —
		// before acting on any error, so payload and the spans cover what
		// actually moved.
		var firstErr error
		for i := range targets {
			rep := &replies[i]
			res.payload += rep.bytes
			span := obs.Span{
				Trace:  trace,
				Op:     obs.OpMergeRound,
				Shard:  targets[i].addr,
				Round:  int32(round),
				Points: int32(len(rep.pts)),
				Bytes:  int32(rep.bytes),
				Start:  rep.start,
				Dur:    rep.rtt,
			}
			if rep.err != nil {
				span.Err = rep.err.Error()
			}
			c.traceLog.Record(span)
			if rep.err != nil {
				if firstErr == nil {
					firstErr = rep.err
				}
				continue
			}
			// The shard confirmed receipt of the whole delta: it is now
			// part of the link's shared ledger on both ends.
			for _, p := range deltas[i] {
				ledgers[i].AddMinHop(p)
			}
			if len(rep.pts) > 0 {
				quiet = false
			}
			for _, p := range rep.pts {
				cand.AddMinHop(p)
				ledgers[i].AddMinHop(p)
			}
		}
		if firstErr != nil {
			return res, firstErr
		}
		if quiet {
			// No reply added a point, so C is what src was built over and
			// its estimate is On(C).
			if src != nil {
				res.outliers = src.Estimate()
			}
			return res, nil
		}
	}
	return res, errMergeRounds
}
