// Routing: each reading goes to its sensor's first Replicas up shards.
// c.mu: reads smap, shards, latest and closed; writes latest.

package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/obs"
)

// IngestBatch validates and routes a batch of readings to the healthy
// shards owning each sensor, one READINGS frame per shard chunk. Each
// reading travels as the point its identity names (ingest.SeqOf), so
// replicas and re-sent readings carry the same PointID. The returned slice has
// one entry per input reading: nil when at least one owning shard
// accepted it.
func (c *Coordinator) IngestBatch(rs []ingest.Reading) []error {
	errs := make([]error, len(rs))
	// One trace ID covers the whole batch: the UDP and HTTP ingest front
	// doors hand the coordinator batches, not single readings, and the
	// batch is the unit that fans out.
	trace := c.traceIDs.next()
	startBatch := time.Now()

	// Phase 1 (under the lock): gate and group by shard; the network
	// sends happen outside the lock.
	perShard := make(map[string][]core.Point)
	perShardIdx := make(map[string][]int) // indices into rs/errs
	accepted := make([]int, len(rs))      // owning shards that took reading i

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		for i := range errs {
			errs[i] = ErrClosed
		}
		return errs
	}
	window := c.cfg.Detector.Window
	for i, r := range rs {
		if err := r.Validate(); err != nil {
			errs[i] = err
			c.obs.rejected.Inc()
			continue
		}
		latest := c.latest[r.Sensor]
		if window > 0 && r.At < latest-window {
			errs[i] = fmt.Errorf("%w: %v is older than %v − %v", ingest.ErrStale, r.At, latest, window)
			c.obs.stale.Inc()
			continue
		}
		owners, rerouted := c.healthyOwnersLocked(r.Sensor)
		if len(owners) == 0 {
			// Bail before touching the sensor's gate: a reading that
			// goes nowhere must not make the coordinator stricter than
			// the shards (a later reading the shards would accept
			// would be rejected as stale here).
			errs[i] = fmt.Errorf("%w: sensor %d", ErrNoHealthyShard, r.Sensor)
			c.obs.failed.Inc()
			continue
		}
		if rerouted {
			c.obs.reroutes.Inc()
		}
		c.latest[r.Sensor] = max(latest, r.At)
		p := core.NewPoint(r.Sensor, ingest.SeqOf(r.At), r.At, r.Values...)
		for _, addr := range owners {
			perShard[addr] = append(perShard[addr], p)
			perShardIdx[addr] = append(perShardIdx[addr], i)
		}
	}
	c.mu.Unlock()

	// Phase 2: fan the per-shard batches out concurrently. A failed
	// send only misses its ack — the health probes own the up/down
	// verdict.
	var (
		wg    sync.WaitGroup
		ackMu sync.Mutex
	)
	for addr, pts := range perShard {
		wg.Add(1)
		go func(addr string, pts []core.Point, idx []int) {
			defer wg.Done()
			if !c.sendReadings(addr, trace, pts) {
				return
			}
			ackMu.Lock()
			defer ackMu.Unlock()
			for _, i := range idx {
				accepted[i]++
			}
		}(addr, pts, perShardIdx[addr])
	}
	wg.Wait()

	routedN, failedN := 0, 0
	for i := range rs {
		if errs[i] != nil {
			if errors.Is(errs[i], ErrNoHealthyShard) {
				failedN++
			}
			continue
		}
		if accepted[i] == 0 {
			errs[i] = ErrRouteFailed
			c.obs.failed.Inc()
			failedN++
			continue
		}
		c.obs.routed.Inc()
		routedN++
	}
	span := obs.Span{
		Trace:  trace,
		Op:     obs.OpIngestBatch,
		Points: int32(routedN),
		Start:  startBatch,
		Dur:    time.Since(startBatch),
	}
	if failedN > 0 {
		span.Err = fmt.Sprintf("%d readings unrouted", failedN)
	}
	c.traceLog.Record(span)
	return errs
}

// healthyOwnersLocked returns the first Replicas up shards in the
// sensor's rendezvous order, and whether any down owner was skipped.
// Callers hold c.mu.
func (c *Coordinator) healthyOwnersLocked(sensor core.NodeID) (owners []string, rerouted bool) {
	for _, addr := range c.smap.RendezvousOrder(sensor) {
		if st := c.shards[addr]; st != nil && st.up {
			owners = append(owners, addr)
			if len(owners) == c.cfg.Replicas {
				break
			}
		} else {
			rerouted = true
		}
	}
	return owners, rerouted
}

// sendReadings ships one shard's batch as READINGS frames, reporting
// whether every frame was acknowledged. trace is the ingest batch's
// trace ID, stamped onto the frames.
func (c *Coordinator) sendReadings(addr string, trace uint64, pts []core.Point) bool {
	ctx, cancel := c.ctlCtx()
	defer cancel()
	frames, _, err := c.client.readings(ctx, addr, 0, trace, pts)
	c.obs.frames.Add(uint64(frames))
	return err == nil
}
