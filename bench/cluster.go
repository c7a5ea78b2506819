package main

import (
	"errors"
	"fmt"
	"time"

	"innet/internal/cluster"
	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/obs"
)

// shard is one ingest.Service behind a ShardServer on loopback UDP.
type shard struct {
	svc    *ingest.Service
	srv    *cluster.ShardServer
	served chan struct{} // closed when Serve returns
}

// shardCluster is one Coordinator routing to two shards, all in this
// process: every reading and every query crosses the shard-control wire.
type shardCluster struct {
	coord  *cluster.Coordinator
	shards []*shard

	// queryOnly makes a step one compact/full query pair with no ingest;
	// refresh then holds the rounds ingested, untimed and refreshRounds at a
	// time, every verifyEvery pairs, so that the window keeps sliding
	// between cache-warm stretches.
	queryOnly bool
	refresh   [][]byte
	refreshed int

	res     *result
	steps   int
	want    []core.Point // oracle over the current window, nil when stale
	lines   lineCounts
	batches uint64 // IngestBatch calls
	queries uint64
	bad     uint64 // queries that errored or came back degraded

	compactBytes, fullBytes []float64
}

// newShardCluster starts the shards and the coordinator. Inexact answers,
// conservation mismatches and layer numbers go to res.
func newShardCluster(queryOnly bool, refresh [][]byte, res *result) (*shardCluster, error) {
	c := &shardCluster{queryOnly: queryOnly, refresh: refresh, res: res}
	var addrs []string
	for i := 0; i < 2; i++ {
		svc, err := ingest.New(ingest.Config{Detector: detectorConfig(), AutoJoin: true, SpanCapacity: spanCapacity})
		if err != nil {
			c.close()
			return nil, err
		}
		srv, err := cluster.NewShardServer(cluster.ShardServerConfig{Service: svc, Addr: "127.0.0.1:0"})
		if err != nil {
			svc.Close()
			c.close()
			return nil, err
		}
		sh := &shard{svc: svc, srv: srv, served: make(chan struct{})}
		go func() {
			defer close(sh.served)
			_ = sh.srv.Serve() // returns net.ErrClosed after Close
		}()
		c.shards = append(c.shards, sh)
		addrs = append(addrs, srv.Addr())
	}
	coord, err := cluster.New(cluster.Config{
		Detector:       detectorConfig(),
		Shards:         addrs,
		Replicas:       1,
		HealthInterval: 500 * time.Millisecond,
		QueryTimeout:   5 * time.Second,
		SpanCapacity:   spanCapacity,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = coord
	return c, nil
}

// ingest routes one datagram through the coordinator and waits for every
// shard to settle.
func (c *shardCluster) ingest(tr *tracer, dgram []byte) (int, error) {
	var batch []ingest.Reading
	parseDatagram(tr, dgram, &c.lines, func(r ingest.Reading) { batch = append(batch, r) })
	sp := tr.begin("cluster.IngestBatch")
	_ = c.coord.IngestBatch(batch) // per-reading outcomes are read back from Stats in conserve
	tr.end(sp)
	c.batches++
	for _, sh := range c.shards {
		sp := tr.begin("ingest.Flush")
		err := sh.svc.Flush(bg)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	c.want = nil
	return len(batch), nil
}

func (c *shardCluster) query(tr *tracer, mode string) (cluster.MergeResult, time.Duration, error) {
	start := time.Now()
	sp := tr.begin("cluster.MergedEstimateMode." + mode)
	res, err := c.coord.MergedEstimateMode(bg, mode)
	tr.end(sp)
	d := time.Since(start)
	c.queries++
	if err != nil || res.Degraded {
		c.bad++
	}
	return res, d, err
}

func (c *shardCluster) step(tr *tracer, dgram []byte) (stepSample, error) {
	c.steps++
	var s stepSample
	clock := startStep()
	root := tr.begin("bench.step")
	if !c.queryOnly {
		n, err := c.ingest(tr, dgram)
		if err != nil {
			return s, err
		}
		s.settle = time.Since(clock.wall)
		s.ops = n
	}
	// Alternate which mode goes first, so neither always runs on a window
	// the other has just snapshotted.
	modes := [2]string{cluster.MergeCompact, cluster.MergeFull}
	if c.steps%2 == 0 {
		modes[0], modes[1] = modes[1], modes[0]
	}
	var answers [2]cluster.MergeResult
	for i, mode := range modes {
		res, d, err := c.query(tr, mode)
		if err != nil {
			return s, fmt.Errorf("%s query: %w", mode, err)
		}
		answers[i] = res
		if mode == cluster.MergeCompact {
			s.compact = d
		} else {
			s.full = d
		}
	}
	tr.end(root)
	clock.stop(&s)
	if c.queryOnly {
		s.ops = 2
	}

	// Untimed from here: every answer against the oracle.
	if c.want == nil {
		var windows [][]core.Point
		for _, sh := range c.shards {
			snap, err := sh.svc.Snapshot(bg)
			if err != nil {
				return s, err
			}
			windows = append(windows, snap)
		}
		c.want = oracle(nil, windows...)
	}
	for i, res := range answers {
		c.res.check(sameIDs(c.want, res.Outliers), fmt.Sprintf("%s query at step %d", modes[i], c.steps))
		bytes := &c.compactBytes
		if res.Mode == cluster.MergeFull {
			bytes = &c.fullBytes
		}
		*bytes = append(*bytes, float64(res.PayloadBytes))
	}
	return s, nil
}

func (c *shardCluster) fill(dgram []byte) error {
	_, err := c.ingest(nil, dgram)
	return err
}

func (c *shardCluster) readPath() *ingest.Service { return c.shards[0].svc }

// refreshRounds is how far the query-only workload's window slides
// between stretches of queries. What a compact merge costs depends on the
// window (three to five rounds of exchange, by how the shards' local
// outliers refute each other), so a run has to see many windows for its
// median to say something about the program and not about the seed: at
// one round per stretch a 10 s run moved the window by a tenth and the
// median step time ran from 9 ms to 15 ms between seeds.
const refreshRounds = 8

// between keeps the query-only workload's window sliding, untimed, so the
// next stretch of queries starts on a changed window and runs cache-warm
// after its first pair.
func (c *shardCluster) between() error {
	if !c.queryOnly {
		return nil
	}
	for i := 0; i < refreshRounds && c.refreshed < len(c.refresh); i++ {
		if _, err := c.ingest(nil, c.refresh[c.refreshed]); err != nil {
			return err
		}
		c.refreshed++
	}
	return nil
}

func (c *shardCluster) conserve() {
	res := c.res
	cs := c.coord.Stats()
	var accepted, observed, dropped uint64
	for _, sh := range c.shards {
		st := sh.svc.Stats()
		accepted += st.Accepted
		observed += st.Observed
		dropped += st.Dropped
	}
	checkEqual(res, "lines = parsed + malformed", c.lines.lines, c.lines.parsed+c.lines.malformed)
	checkEqual(res, "parsed = routed + stale + rejected + failed",
		c.lines.parsed, cs.Routed+cs.Stale+cs.Rejected+cs.Failed)
	checkEqual(res, "routed = accepted by the shards", cs.Routed, accepted)
	checkEqual(res, "accepted = observed + dropped", accepted, observed+dropped)
	checkEqual(res, "queries = merges served + errored", c.queries, cs.Merges+c.bad-cs.MergesDegraded)
	res.Attempted += c.lines.lines + c.queries
	res.Failed += c.lines.lines - observed + c.bad
}

func (c *shardCluster) layers() {
	res := c.res
	m := res.Metrics
	cs := c.coord.Stats()
	m["merge_bytes_per_query_compact"] = mean(c.compactBytes)
	m["merge_bytes_per_query_full"] = mean(c.fullBytes)
	m["cluster.merge_fallbacks"] = float64(cs.MergeFallbacks)
	if cs.MergesCompact > 0 {
		m["cluster.merge_rounds_per_query"] = float64(cs.MergeRounds) / float64(cs.MergesCompact)
	}

	var batch, round, fetch []float64
	for _, s := range c.coord.Traces().Snapshot(0, 0) {
		switch s.Op {
		case obs.OpIngestBatch:
			batch = append(batch, us(s.Dur))
		case obs.OpMergeRound:
			round = append(round, ms(s.Dur))
		case obs.OpMergeFull:
			fetch = append(fetch, ms(s.Dur))
		}
	}
	put := func(name string, samples []float64) {
		m[name] = median(samples)
		res.Samples[name] = len(samples)
	}
	put("cluster.ingest_batch_us_p50", batch)
	put("cluster.merge_round_p50_ms", round)
	put("cluster.full_fetch_p50_ms", fetch)
	if c.batches > 0 {
		m["cluster.frames_per_batch"] = float64(cs.Frames) / float64(c.batches)
	}

	var sufficient, create []float64
	hits := 0
	var dropped, stale, malformed, batches, observed uint64
	for _, sh := range c.shards {
		for _, s := range sh.svc.Traces().Snapshot(0, 0) {
			switch s.Op {
			case obs.OpSufficient:
				sufficient = append(sufficient, ms(s.Dur))
			case obs.OpSessionCreate:
				create = append(create, ms(s.Dur))
				if s.Hit {
					hits++
				}
			}
		}
		st := sh.svc.Stats()
		dropped, stale, malformed = dropped+st.Dropped, stale+st.Stale, malformed+st.Malformed
		batches, observed = batches+st.Batches, observed+st.Observed
	}
	put("cluster.shard_sufficient_p50_ms", sufficient)
	put("cluster.shard_session_create_p50_ms", create)
	if len(create) > 0 {
		m["cluster.session_cache_hit_share"] = float64(hits) / float64(len(create))
	}
	var rtt []float64
	for _, info := range c.coord.ShardInfos() {
		rtt = append(rtt, info.LastRTTMS)
	}
	m["cluster.health_rtt_ms"] = mean(rtt)
	if observed > 0 {
		m["ingest.batches_per_reading"] = float64(batches) / float64(observed)
	}
	m["ingest.dropped"] = float64(dropped)
	m["ingest.stale"] = float64(stale + cs.Stale)
	m["ingest.malformed"] = float64(malformed + c.lines.malformed + cs.Rejected)
	ringLayers(res, c.shards[0].svc.Traces())
}

// close stops the coordinator first (so no RPC is in flight), then each
// shard's listener and fleet, and waits for the Serve loops to return.
func (c *shardCluster) close() error {
	var errs []error
	if c.coord != nil {
		errs = append(errs, c.coord.Close())
	}
	for _, sh := range c.shards {
		errs = append(errs, sh.srv.Close())
		<-sh.served
		errs = append(errs, sh.svc.Close())
	}
	return errors.Join(errs...)
}
