package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
)

// Compact cluster merge: the coordinator runs the paper's Algorithm 1
// iteratively against the shards instead of unioning window snapshots.
// The coordinator is a data-less node on a star topology; each shard is
// a node whose dataset is its frozen window snapshot. Rounds exchange
// Eq. (2) sufficient-set deltas against per-link shared ledgers:
//
//	round r: coordinator → shard   LEDGER chunks: Z_c \ ledger_s, the
//	                               coordinator's sufficient delta over
//	                               its candidate set C
//	         coordinator → shard   SUFFICIENT(session, r): "react"
//	         shard → coordinator   the shard's sufficient delta over
//	                               P_s ∪ received, against the ledger
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
	// back to MergeFull when a shard cannot play (its merge frames go
	// unanswered, it dies mid-query, it refuses an evicted session) or the
	// round budget runs out.
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
// query's trace ID. Shards key merge state — frozen snapshot link,
// ledger, per-round reply cache — by that ID alone, so two concurrent
// queries that collide replay each other's cached rounds and answer over
// each other's snapshots. A bare rand.Uint64() per query makes that
// collision merely improbable; salting a monotone counter makes it
// impossible within a process: the salt is fixed at startup and the
// counter never repeats, so IDs are pairwise distinct for the life of
// the coordinator (while the salt still keeps two coordinators sharing a
// shard from walking the same ID sequence).
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
	payload  int // point payload bytes exchanged, both directions
}

// compactMerge drives one compact-merge session against the targets. It
// returns an error — and the rounds/payload spent — when any target
// fails an exchange (the caller falls back to the full-window path) or
// the round budget is exhausted. On success the result is exact for the
// union of the targets' windows. trace is the query's trace ID and the
// session's ID: it rides every merge frame, in the header and in the
// body's session field, and every round records one coordinator-side
// span per shard.
func (c *Coordinator) compactMerge(ctx context.Context, targets []*shardState, trace uint64) (compactResult, error) {
	cand := core.NewSet()
	ledgers := make([]*core.Set, len(targets))
	for i := range ledgers {
		ledgers[i] = core.NewSet()
	}
	res := compactResult{cand: cand}
	// Merge exchanges are small and fast; a tighter per-attempt timeout
	// than the big transfers use keeps a dead shard from eating the
	// whole query budget before the fallback gets its turn.
	perAttempt := c.cfg.QueryTimeout / time.Duration(2*c.cfg.RetryAttempts)

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

		// Network phase, fanned out per shard: deliver the delta in
		// byte-budgeted LEDGER chunks, then ask for the shard's round
		// delta. Every exchange is idempotent under retry. A failing
		// shard still reports the bytes it confirmed receiving — they
		// were on the wire, so the cost accounting must include them.
		type reply struct {
			pts   []core.Point
			bytes int // LEDGER payload delivered + SUFFICIENT payload received
			reqID uint32
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
				start := time.Now()
				sent := 0
				for _, chunk := range chunkByBytes(deltas[i], maxFrameBytes) {
					if len(chunk) == 0 {
						continue
					}
					// One reqID per logical chunk, reused across retry
					// attempts: the shard's dedupe and replay machinery
					// must see a resend, not a fresh request.
					reqID := c.client.newReqID()
					var nb int
					err := retry(ctx, c.cfg.RetryAttempts, perAttempt, func(ctx context.Context) error {
						var err error
						nb, err = c.client.ledger(ctx, st.udp, reqID, trace, chunk)
						return err
					})
					if err != nil {
						replies[i] = reply{bytes: sent, reqID: reqID, start: start, rtt: time.Since(start),
							err: fmt.Errorf("ledger to %s: %w", st.addr, err)}
						return
					}
					sent += nb
				}
				reqID := c.client.newReqID()
				var pts []core.Point
				var nb int
				err := retry(ctx, c.cfg.RetryAttempts, perAttempt, func(ctx context.Context) error {
					var err error
					pts, nb, err = c.client.sufficient(ctx, st.udp, reqID, trace, uint16(round))
					return err
				})
				if err != nil {
					replies[i] = reply{bytes: sent, reqID: reqID, start: start, rtt: time.Since(start),
						err: fmt.Errorf("sufficient from %s: %w", st.addr, err)}
					return
				}
				replies[i] = reply{pts: pts, bytes: sent + nb, reqID: reqID, start: start, rtt: time.Since(start)}
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
				ReqID:  rep.reqID,
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
			res.outliers = core.TopN(c.cfg.Detector.Ranker, cand, c.cfg.Detector.N)
			return res, nil
		}
	}
	return res, errMergeRounds
}
