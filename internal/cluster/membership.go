// Membership (§5.3): startup discovery, shard add and remove, window
// copy, health and resync. c.mu: reads smap, shards, latest and closed;
// writes smap, shards (and each shard's state) and latest.

package cluster

import (
	"context"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"time"

	"innet/internal/core"
	"innet/internal/protocol"
)

// discoverSensors learns, at startup, which sensors the shards already
// hold: AddShard's copy, RemoveShard's drain and resync's eviction walk
// only the sensors in latest, so a restarted coordinator that knew just
// the sensors reporting since the restart would strand the others'
// windows. One window query per configured shard; each point's birth
// also seeds its sensor's staleness gate. Best-effort: a shard that does
// not answer contributes nothing (its sensors rejoin latest when they
// next report).
func (c *Coordinator) discoverSensors() {
	var wg sync.WaitGroup
	for _, st := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(c.ctx, probeTimeout)
			defer cancel()
			pts, _, err := c.client.estimate(ctx, st.addr, 0, 0)
			if err != nil {
				return
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			for _, p := range pts {
				c.latest[p.ID.Origin] = max(c.latest[p.ID.Origin], p.Birth)
			}
		}()
	}
	wg.Wait()
}

// AddShard registers a new shard and rebalances: the map version
// advances, every shard is re-ASSIGNed, and sensors gaining the new
// shard as an owner are handed off to it by their current owners.
func (c *Coordinator) AddShard(addr string) error {
	if _, err := net.ResolveTCPAddr("tcp", addr); err != nil {
		return fmt.Errorf("cluster: resolve shard %q: %w", addr, err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if _, dup := c.shards[addr]; dup {
		c.mu.Unlock()
		return fmt.Errorf("cluster: shard %s already registered", addr)
	}
	// Register the shard and copy the windows it will own BEFORE
	// publishing the new map: once the map version moves, resyncs evict
	// the moved sensors from their old owners, and with Replicas 1 the
	// old owner held the only copy. Routing keeps using the old map
	// during the copy, so no reading is mis-homed meanwhile.
	oldMap := c.smap
	newMap := c.smap.WithShard(addr)
	c.shards[addr] = &shardState{addr: addr, up: true}
	seen := c.seenSensorsLocked()
	c.mu.Unlock()
	// Adding a shard changes no other shard's rendezvous score, so the
	// new shard is the only owner any sensor can gain.
	for _, sensor := range seen {
		if !slices.Contains(newMap.Owners(sensor, c.cfg.Replicas), addr) {
			continue
		}
		from, to := c.firstUp(oldMap.Owners(sensor, c.cfg.Replicas), ""), c.firstUp([]string{addr}, "")
		if from != nil && to != nil {
			c.copyWindow(sensor, from, to)
		}
	}

	c.cfg.Logger.Info("shard added", "shard", addr, "map_version", newMap.Version())
	c.publish(newMap, "")
	return nil
}

// RemoveShard drains and deregisters a shard: while it is still
// reachable its sensors' windows are handed off to their new owners
// first, then the map version advances and the rest re-ASSIGNs.
func (c *Coordinator) RemoveShard(addr string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	st, ok := c.shards[addr]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownShard, addr)
	}
	oldMap := c.smap
	newMap := c.smap.WithoutShard(addr)
	drainable := st.up && newMap.Len() > 0
	seen := c.seenSensorsLocked()
	c.mu.Unlock()

	if drainable {
		for _, sensor := range oldMap.Owned(addr, seen, c.cfg.Replicas) {
			// Only sensors that would lose their last copy need moving:
			// their other owners are down, so the first up new owner is
			// the shard that gains them.
			if c.firstUp(oldMap.Owners(sensor, c.cfg.Replicas), addr) != nil {
				continue
			}
			if to := c.firstUp(newMap.Owners(sensor, c.cfg.Replicas), ""); to != nil {
				c.copyWindow(sensor, st, to)
			}
		}
	}

	c.cfg.Logger.Info("shard removed", "shard", addr, "map_version", newMap.Version())
	c.publish(newMap, addr)
	return nil
}

// firstUp returns the first shard among addrs, other than except, that
// the health loop considers up, or nil.
func (c *Coordinator) firstUp(addrs []string, except string) *shardState {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range addrs {
		if st := c.shards[a]; a != except && st != nil && st.up {
			return st
		}
	}
	return nil
}

// copyWindow copies one sensor's window from a shard that holds it to
// one that should: an ESTIMATE for that sensor from from, then READINGS
// flagged FlagTransfer to to. It is the one window-copy path behind
// AddShard, RemoveShard's drain and resync. A failed copy is not retried
// here: resync repeats it wherever a surviving copy exists.
func (c *Coordinator) copyWindow(sensor core.NodeID, from, to *shardState) {
	ctx, cancel := c.ctlCtx()
	pts, _, err := c.client.estimate(ctx, from.addr, 0, sensor)
	cancel()
	if err != nil || len(pts) == 0 {
		return
	}
	ctx, cancel = c.ctlCtx()
	_, _, err = c.client.readings(ctx, to.addr, protocol.FlagTransfer, 0, pts)
	cancel()
	if err != nil {
		return
	}
	c.obs.handoffSen.Inc()
	c.obs.handoffPts.Add(uint64(len(pts)))
	c.cfg.Logger.Info("sensor handed off", "sensor", uint64(sensor), "points", len(pts),
		"from", from.addr, "to", to.addr)
}

func (c *Coordinator) seenSensorsLocked() []core.NodeID {
	return slices.Sorted(maps.Keys(c.latest))
}

// healthLoop probes every shard each interval and drives the
// up/down/resync state machine. Probes are fire-and-forget with a
// per-shard in-flight guard: one stalled shard eating its full
// probeTimeout must not stretch the probe period for the healthy ones.
// A probe checks out a connection of its own, so it never waits behind
// a snapshot or a merge.
func (c *Coordinator) healthLoop() {
	defer close(c.healthDone)
	ticker := time.NewTicker(c.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		targets := make([]*shardState, 0, len(c.shards))
		for _, st := range c.shards {
			if !st.probing {
				st.probing = true
				targets = append(targets, st)
			}
		}
		c.mu.Unlock()
		for _, st := range targets {
			go func(st *shardState) {
				ctx, cancel := context.WithTimeout(c.ctx, probeTimeout)
				probeStart := time.Now()
				h, err := c.client.health(ctx, st.addr)
				cancel()
				if err != nil {
					c.noteMiss(st)
				} else {
					c.noteUp(st, h, time.Since(probeStart))
				}
			}(st)
		}
	}
}

// noteMiss and noteUp apply one probe's outcome and end the probe.
func (c *Coordinator) noteMiss(st *shardState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st.probing = false
	st.misses++
	if st.misses >= c.cfg.HealthMisses && st.up {
		st.up = false
		st.synced = false
		c.obs.flaps.Inc()
		c.cfg.Logger.Warn("shard marked down", "shard", st.addr, "misses", st.misses)
	}
}

func (c *Coordinator) noteUp(st *shardState, h protocol.HealthBody, rtt time.Duration) {
	c.mu.Lock()
	st.probing = false
	wasDown := !st.up
	st.up = true
	st.misses = 0
	st.last = h
	st.lastAt = time.Now()
	st.lastRTT = rtt
	version := c.smap.Version()
	needSync := wasDown || !st.synced || h.MapVersion != version
	c.mu.Unlock()
	if wasDown {
		c.cfg.Logger.Info("shard back up", "shard", st.addr, "map_version", h.MapVersion)
	}
	if needSync {
		go c.resync(st)
	}
}

// publish installs newMap, drops the shard removed (if any) and its idle
// connections, and resyncs every up shard onto the new map without
// waiting for the next health tick.
func (c *Coordinator) publish(newMap *ShardMap, removed string) {
	c.mu.Lock()
	c.smap = newMap
	delete(c.shards, removed)
	var targets []*shardState
	for _, st := range c.shards {
		st.synced = false
		if st.up {
			targets = append(targets, st)
		}
	}
	c.mu.Unlock()
	if removed != "" {
		c.client.forget(removed)
	}
	for _, st := range targets {
		go c.resync(st)
	}
}

// resync pushes the current map epoch to one shard (ASSIGN) and, for
// every sensor it owns that has a surviving copy on another up shard,
// copies the window back (copyWindow). It is how a rejoining shard — which
// may have restarted empty — converges back to exact answers instead of
// waiting a full window for refill; with Replicas == 1 there is no
// surviving copy and refill is the only path (the ASSIGN still re-joins
// the sensors so fresh readings land immediately).
func (c *Coordinator) resync(st *shardState) {
	c.mu.Lock()
	if st.syncing || c.closed {
		c.mu.Unlock()
		return
	}
	st.syncing = true
	smap := c.smap
	seen := c.seenSensorsLocked()
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		st.syncing = false
		c.mu.Unlock()
	}()
	if smap.Index(st.addr) < 0 {
		return // mid-AddShard: registered but not published yet
	}

	owned := smap.Owned(st.addr, seen, c.cfg.Replicas)
	var evict []core.NodeID
	for _, id := range seen {
		if _, found := slices.BinarySearch(owned, id); !found {
			evict = append(evict, id)
		}
	}
	body := protocol.AssignBody{
		MapVersion: smap.Version(),
		ShardIndex: uint16(smap.Index(st.addr)),
		ShardCount: uint16(smap.Len()),
		Sensors:    owned,
		Evict:      evict,
	}
	ctx, cancel := c.ctlCtx()
	_, err := c.client.assign(ctx, st.addr, body)
	cancel()
	if err != nil {
		return // next health tick retries
	}
	c.obs.assigns.Inc()

	for _, sensor := range owned {
		if from := c.firstUp(smap.Owners(sensor, c.cfg.Replicas), st.addr); from != nil {
			c.copyWindow(sensor, from, st)
		}
	}
	c.mu.Lock()
	// Only mark synced if the map did not move underneath the resync.
	if c.smap.Version() == smap.Version() {
		st.synced = true
	}
	c.mu.Unlock()
}
