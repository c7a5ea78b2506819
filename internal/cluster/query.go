// Query: the merged answer, by the compact exchange (merge.go) or the
// full-window fan, over every registered shard that is up. c.mu: reads
// smap, shards, closed and lastOutliers; writes lastOutliers.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
)

// MergeResult is one merged outlier view.
type MergeResult struct {
	Outliers []core.Point // On over the union of shard windows
	// Window is the point set the answer was computed over: with
	// MergeFull the merged window itself (what ?window=1 serves), with
	// MergeCompact the coordinator's accumulated candidate set C — a
	// provably sufficient subset, not the whole window.
	Window []core.Point

	Mode         string // MergeCompact or MergeFull (after any fallback)
	Rounds       int    // compact rounds driven (0 on the full path)
	PayloadBytes int    // point payload moved for this query
	Trace        uint64 // the query's trace ID (key into /debug/traces)

	MapVersion  uint64
	ShardsTotal int // registered shards, up or down
	ShardsOK    int // shards that answered
	Degraded    bool
}

// MergedEstimateMode serves the cluster-wide outlier estimate — by
// construction the same answer baseline.Compute gives over the union of
// all sensor windows. MergeCompact (also mode "") runs the iterative
// Algorithm 1 exchange, falling back to the full path when a shard
// cannot play or the round budget runs out; MergeFull fans ESTIMATE
// snapshot queries to every registered up shard (a shard being removed
// included) and computes On over the union.
// Any other mode is refused before any shard is asked.
func (c *Coordinator) MergedEstimateMode(ctx context.Context, mode string) (MergeResult, error) {
	switch mode {
	case "":
		mode = MergeCompact
	case MergeCompact, MergeFull:
	default:
		return MergeResult{}, fmt.Errorf("%w %q (want %q or %q)", errMergeMode, mode, MergeCompact, MergeFull)
	}
	start := time.Now()
	// Every query gets a trace ID, minted here at the front door. It is
	// returned in the result, stamped onto every shard-control frame the
	// query sends, and keys every span it emits on either side.
	traceID := c.traceIDs.next()
	// finish counts the served merge, stamps the query's service time
	// (observed under the mode that actually served the answer), records
	// the root query span, and applies the slow-query log.
	finish := func(res MergeResult, err error) (MergeResult, error) {
		elapsed := time.Since(start)
		res.Trace = traceID
		c.obs.merges.Inc()
		if res.Degraded {
			c.obs.mergesDegraded.Inc()
		}
		if err == nil {
			c.obs.queryLat.With(res.Mode).Observe(elapsed.Seconds())
			c.mu.Lock()
			c.lastOutliers = slices.Clone(res.Outliers)
			c.mu.Unlock()
		}
		span := obs.Span{
			Trace:  traceID,
			Op:     obs.OpQuery,
			Round:  int32(res.Rounds),
			Points: int32(len(res.Outliers)),
			Bytes:  int32(res.PayloadBytes),
			Start:  start,
			Dur:    elapsed,
		}
		if err != nil {
			span.Err = err.Error()
		}
		c.traceLog.Record(span)
		if c.cfg.SlowQuery > 0 && elapsed >= c.cfg.SlowQuery {
			c.cfg.Logger.Warn("slow query",
				"trace", traceHex(traceID), "mode", res.Mode,
				"elapsed", elapsed.Round(time.Microsecond), "threshold", c.cfg.SlowQuery,
				"rounds", res.Rounds, "payload_bytes", res.PayloadBytes)
		}
		return res, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return MergeResult{}, ErrClosed
	}
	version := c.smap.Version()
	total := len(c.shards)
	hint := c.lastOutliers
	var targets, all []*shardState
	for _, addr := range slices.Sorted(maps.Keys(c.shards)) {
		st := c.shards[addr]
		all = append(all, st)
		if st.up {
			targets = append(targets, st)
		}
	}
	if len(targets) == 0 {
		// Every shard looks down (or the probes are flapping): query
		// them all anyway — a shard that answers is better evidence
		// than a stale verdict, and one that is really down just eats
		// its timeout.
		targets = all
	}
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(ctx, c.cfg.QueryTimeout)
	defer cancel()

	if mode == MergeCompact {
		// The compact path needs every target to answer every round, so
		// give it half the query budget and keep the rest for the
		// full-window fallback should a shard stall mid-session (a
		// killed one is an EOF at once).
		compactCtx, ccancel := context.WithTimeout(ctx, c.cfg.QueryTimeout/2)
		cres, err := c.compactMerge(compactCtx, targets, traceID)
		ccancel()
		c.obs.mergeRounds.Add(uint64(cres.rounds))
		c.obs.mergeBytes.Add(uint64(cres.payload))
		if err == nil {
			res := MergeResult{
				Outliers:     cres.outliers,
				Window:       cres.cand.Points(),
				Mode:         MergeCompact,
				Rounds:       cres.rounds,
				PayloadBytes: cres.payload,
				MapVersion:   version,
				ShardsTotal:  total,
				ShardsOK:     len(targets),
				Degraded:     len(targets) < total,
			}
			c.obs.mergesCompact.Inc()
			return finish(res, nil)
		}
		c.obs.mergeFallbacks.Inc()
		// The fallback event carries the query's trace ID — the span and
		// the log line tie the abandoned compact rounds to the full-path
		// rescue that follows.
		c.traceLog.Record(obs.Span{
			Trace: traceID,
			Op:    obs.OpMergeFallback,
			Round: int32(cres.rounds),
			Bytes: int32(cres.payload),
			Err:   err.Error(),
			Start: start,
			Dur:   time.Since(start),
		})
		c.cfg.Logger.Warn("compact merge falling back to full",
			"trace", traceHex(traceID), "rounds", cres.rounds, "err", err)
	}

	// Each shard's window lands in its own slot (nil if it gave up); the
	// union is one merge of them once every shard has answered or given up.
	windows := make([][]core.Point, len(targets))
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex // guards ok and bytes
		ok, bytes int
	)
	for i, st := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardStart := time.Now()
			pts, nb, err := c.client.estimate(ctx, st.addr, traceID, 0)
			span := obs.Span{
				Trace:  traceID,
				Op:     obs.OpMergeFull,
				Shard:  st.addr,
				Points: int32(len(pts)),
				Bytes:  int32(nb),
				Start:  shardStart,
				Dur:    time.Since(shardStart),
			}
			if err != nil {
				span.Err = err.Error()
			}
			c.traceLog.Record(span)
			if err == nil {
				mu.Lock()
				windows[i] = pts
				ok++
				bytes += nb
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res := MergeResult{
		Window:       core.UnionPoints(windows...),
		Mode:         MergeFull,
		PayloadBytes: bytes,
		MapVersion:   version,
		ShardsTotal:  total,
		ShardsOK:     ok,
		Degraded:     ok < total,
	}
	res.Outliers = core.TopNHinted(c.cfg.Detector.Ranker, res.Window, c.cfg.Detector.N, hint)
	c.obs.mergeFullBytes.Add(uint64(bytes))
	if ok == 0 && total > 0 {
		return finish(res, errors.New("cluster: no shard answered the estimate query"))
	}
	return finish(res, nil)
}
