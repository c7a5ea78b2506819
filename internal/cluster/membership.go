// Membership (§5.3): startup discovery, shard add and remove, window
// copy, health and resync. c.mu: reads smap, shards, latest and closed;
// writes smap, shards (and each shard's state) and latest. c.member
// orders a map change against every resync.

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
// hold: a membership change's copies and resync's eviction walk only
// the sensors in latest, so a restarted coordinator that knew just
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

// AddShard registers a new shard and moves the cluster onto a map that
// includes it (change).
func (c *Coordinator) AddShard(addr string) error {
	if _, err := net.ResolveTCPAddr("tcp", addr); err != nil {
		return fmt.Errorf("cluster: resolve shard %q: %w", addr, err)
	}
	return c.change(addr, true)
}

// RemoveShard moves the cluster onto a map without the shard (change),
// draining its windows while it is reachable, and deregisters it.
func (c *Coordinator) RemoveShard(addr string) error {
	return c.change(addr, false)
}

// change is the one membership path: it adds addr to the map or removes
// it. Changes run one at a time under c.member, so each builds on the
// map the last one installed, in three steps:
//  1. every window that gains an owner is copied to that owner, if it is
//     up, from the sensor's first up old owner (a shard being removed
//     counts while it answers). Routing keeps the old map meanwhile.
//  2. the new map is installed and a removed shard dropped.
//  3. every up shard is resynced onto the new map (ASSIGN, which evicts
//     the sensors it lost), and change waits for all of them.
//
// So the evicting ASSIGNs come only after the copies, and when change
// returns every up shard that answered holds the new epoch: no ASSIGN
// of an older map is left in flight to evict a window the next change
// copies. A probe's resync holds c.member for reading, so it runs
// before or after a change, never inside one.
func (c *Coordinator) change(addr string, add bool) error {
	c.member.Lock()
	defer c.member.Unlock()
	c.mu.Lock()
	_, known := c.shards[addr]
	var err error
	switch {
	case c.closed:
		err = ErrClosed
	case add && known:
		err = fmt.Errorf("cluster: shard %s already registered", addr)
	case !add && !known:
		err = fmt.Errorf("%w: %s", ErrUnknownShard, addr)
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	oldMap, newMap := c.smap, c.smap.WithoutShard(addr)
	if add {
		newMap = c.smap.WithShard(addr)
		c.shards[addr] = &shardState{addr: addr, up: true}
	}
	seen := c.seenSensorsLocked()
	c.mu.Unlock()

	for _, sensor := range seen {
		was := oldMap.Owners(sensor, c.cfg.Replicas)
		for _, gains := range newMap.Owners(sensor, c.cfg.Replicas) {
			if slices.Contains(was, gains) {
				continue
			}
			if from, to := c.firstUp(was, ""), c.firstUp([]string{gains}, ""); from != nil && to != nil {
				c.copyWindow(sensor, from, to)
			}
		}
	}

	c.mu.Lock()
	c.smap = newMap
	if !add {
		delete(c.shards, addr)
	}
	var targets []*shardState
	for _, st := range c.shards {
		st.synced = false
		if st.up {
			targets = append(targets, st)
		}
	}
	c.mu.Unlock()
	if !add {
		c.client.forget(addr)
	}
	var wg sync.WaitGroup
	for _, st := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.resync(st)
		}()
	}
	wg.Wait()
	msg := "shard removed"
	if add {
		msg = "shard added"
	}
	c.cfg.Logger.Info(msg, "shard", addr, "map_version", newMap.Version())
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
// flagged FlagTransfer to to. It is the one window-copy path behind a
// membership change and resync. A failed copy is not retried here:
// resync repeats it wherever a surviving copy exists.
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

// healthLoop runs a probe round on every tick: of a HealthInterval
// ticker, or of the channel a test passed to start.
func (c *Coordinator) healthLoop(tick <-chan time.Time) {
	defer close(c.healthDone)
	if tick == nil {
		ticker := time.NewTicker(c.cfg.HealthInterval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick:
		}
		c.probeRound()
	}
}

// probeRound probes every shard whose last probe has ended, each on its
// own goroutine: one stalled shard eating its full probeTimeout must not
// stretch the probe period for the healthy ones, and a shard whose probe
// or resync is still running is skipped, so goroutines cannot pile up.
// A probe checks out a connection of its own, so it never waits behind a
// snapshot or a merge. The returned group is done when every probe the
// round started, and the resync that followed it, has ended.
func (c *Coordinator) probeRound() *sync.WaitGroup {
	var round sync.WaitGroup
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.shards {
		if st.probing {
			continue
		}
		st.probing = true
		round.Add(1)
		go func() {
			defer round.Done()
			c.probe(st)
		}()
	}
	return &round
}

// probe sends one shard a HEALTH and drives its up/down state. A shard
// that answered but has not acknowledged the current map is resynced,
// under a read hold of c.member. Then the probe ends.
func (c *Coordinator) probe(st *shardState) {
	ctx, cancel := context.WithTimeout(c.ctx, probeTimeout)
	start := time.Now()
	h, err := c.client.health(ctx, st.addr)
	rtt := time.Since(start)
	cancel()
	c.mu.Lock()
	if err != nil {
		st.misses++
		if st.misses >= c.cfg.HealthMisses && st.up {
			st.up = false
			st.synced = false
			c.obs.flaps.Inc()
			c.cfg.Logger.Warn("shard marked down", "shard", st.addr, "misses", st.misses)
		}
	} else {
		if !st.up {
			c.cfg.Logger.Info("shard back up", "shard", st.addr, "map_version", h.MapVersion)
		}
		st.up = true
		st.misses = 0
		st.last = h
		st.lastAt = time.Now()
		st.lastRTT = rtt
	}
	needSync := err == nil && (!st.synced || h.MapVersion != c.smap.Version())
	c.mu.Unlock()
	if needSync {
		c.member.RLock()
		c.resync(st)
		c.member.RUnlock()
	}
	c.mu.Lock()
	st.probing = false
	c.mu.Unlock()
}

// resync pushes the current map epoch to one shard (ASSIGN) and copies
// back each window it owns that survives on another up shard, so a shard
// that rejoined empty converges to exact answers without waiting a full
// window for refill (at Replicas 1 refill is the only path; the ASSIGN
// still joins its sensors). The caller holds c.member: change for
// writing, probe for reading.
func (c *Coordinator) resync(st *shardState) {
	c.mu.Lock()
	closed, smap, seen := c.closed, c.smap, c.seenSensorsLocked()
	c.mu.Unlock()
	if closed || smap.Index(st.addr) < 0 {
		return // closing, or removed since its probe began
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
	st.synced = true // no change can move the map while c.member is held
	c.mu.Unlock()
}
