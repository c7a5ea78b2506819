// Membership (§5.3): startup discovery, the one membership path that a
// shard added, removed, marked down or back up all take (change), the
// window copy, and the health loop that marks shards down and back up.
// c.mu: reads smap, shards, latest, floor and closed; writes smap,
// shards (and each shard's state) and floor. c.member orders every
// change against the others and against a probe's refill.

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
// hold: a change's copies and evictions walk only the sensors in latest,
// so a restarted coordinator that knew just the sensors reporting since
// the restart would strand the others' windows. It also raises floor to
// the highest epoch a shard holds, which ignores an ASSIGN at or below
// it. One probe and one window query per configured shard; each point's
// birth also seeds its sensor's staleness gate. Best-effort: a shard
// that does not answer contributes nothing until it reports or a probe
// reaches it.
func (c *Coordinator) discoverSensors() {
	var wg sync.WaitGroup
	for _, st := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(c.ctx, probeTimeout)
			defer cancel()
			h, _ := c.client.health(ctx, st.addr) // zero if it does not answer
			pts, _, _ := c.client.estimate(ctx, st.addr, 0, 0)
			c.mu.Lock()
			defer c.mu.Unlock()
			c.floor = max(c.floor, h.MapVersion)
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
	return c.change(addr, stepAdd)
}

// RemoveShard moves the cluster onto a map without the shard (change),
// draining its windows while it is reachable, and deregisters it.
func (c *Coordinator) RemoveShard(addr string) error {
	return c.change(addr, stepRemove)
}

// step is what a change does to its shard, as its log line says it.
type step string

const (
	stepAdd    step = "shard added"
	stepRemove step = "shard removed"
	stepDown   step = "shard marked down"
	stepUp     step = "shard back up"
)

// change is the one membership path: a shard added, removed, marked down
// or back up moves the live map to a new epoch, above floor. Changes run
// one at a time under c.member, each on the map the last one installed,
// in three steps:
//  1. Install: readings route by the new map from here on. A shard
//     being removed stays registered, so queries still read it.
//  2. Fill: each up shard gets every window it gains, copied from the
//     first up shard that owned it under the old map.
//  3. Assign: every shard in the new map gets its epoch (ASSIGN), which
//     evicts what it lost; change waits for all of them, then drops a
//     removed shard.
//
// So a reading routed during the copy lands beside the copied window,
// and the old owner's copy stays readable until the ASSIGN evicts it.
func (c *Coordinator) change(addr string, s step) error {
	c.member.Lock()
	defer c.member.Unlock()
	c.mu.Lock()
	st := c.shards[addr]
	var err error
	switch {
	case c.closed:
		err = ErrClosed
	case s == stepAdd && st != nil:
		err = fmt.Errorf("cluster: shard %s already registered", addr)
	case s != stepAdd && st == nil:
		err = fmt.Errorf("%w: %s", ErrUnknownShard, addr)
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	old := c.smap
	was, now := old, old.WithoutShard(addr)
	switch s {
	case stepAdd, stepUp:
		// Fill a shard that rejoins as if the old map never held it: it
		// may have restarted empty.
		was, now = old.WithoutShard(addr), old.WithShard(addr)
		if st == nil {
			st = &shardState{addr: addr}
			c.shards[addr] = st
		}
		st.up = true
	case stepDown:
		st.up = false
	}
	now.version = max(old.version, c.floor) + 1
	c.smap = now
	seen := slices.Sorted(maps.Keys(c.latest))
	var targets []*shardState
	for _, a := range now.Shards() {
		targets = append(targets, c.shards[a])
	}
	c.mu.Unlock()

	c.fill(was, now, seen)
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.assign(t, now, seen)
		}()
	}
	wg.Wait()
	if s == stepRemove {
		c.mu.Lock()
		delete(c.shards, addr)
		c.mu.Unlock()
		c.client.forget(addr)
	}
	c.cfg.Logger.Info(string(s), "shard", addr, "map_version", now.Version())
	return nil
}

// fill copies to each shard of now every window it owns under now and
// did not under was, from the sensor's first up owner under was.
func (c *Coordinator) fill(was, now *ShardMap, sensors []core.NodeID) {
	for _, sensor := range sensors {
		from := was.Owners(sensor, c.cfg.Replicas)
		for _, to := range now.Owners(sensor, c.cfg.Replicas) {
			if !slices.Contains(from, to) {
				c.copyWindow(sensor, from, to)
			}
		}
	}
}

// copyWindow copies one sensor's window to the shard to from the first
// up shard among from: an ESTIMATE for that sensor, then READINGS
// flagged FlagTransfer. It is the one window-copy path, behind every
// change and refill. A failed copy is not retried here: the next change
// or refill repeats it wherever a surviving copy exists.
func (c *Coordinator) copyWindow(sensor core.NodeID, from []string, to string) {
	c.mu.Lock()
	src := slices.IndexFunc(from, func(a string) bool { return c.shards[a] != nil && c.shards[a].up })
	c.mu.Unlock()
	if src < 0 {
		return
	}
	ctx, cancel := c.ctlCtx()
	pts, _, err := c.client.estimate(ctx, from[src], 0, sensor)
	cancel()
	if err != nil || len(pts) == 0 {
		return
	}
	ctx, cancel = c.ctlCtx()
	_, _, err = c.client.readings(ctx, to, protocol.FlagTransfer, 0, pts)
	cancel()
	if err != nil {
		return
	}
	c.obs.handoffSen.Inc()
	c.obs.handoffPts.Add(uint64(len(pts)))
	c.cfg.Logger.Info("sensor handed off", "sensor", uint64(sensor), "points", len(pts),
		"from", from[src], "to", to)
}

// assign sends one shard the map's epoch: the known sensors it owns, to
// join, and the others, to evict. A shard that does not acknowledge it
// is found behind by its next probe.
func (c *Coordinator) assign(st *shardState, smap *ShardMap, seen []core.NodeID) {
	owned := smap.Owned(st.addr, seen, c.cfg.Replicas)
	evict := slices.DeleteFunc(slices.Clone(seen), func(id core.NodeID) bool {
		_, found := slices.BinarySearch(owned, id)
		return found
	})
	body := protocol.AssignBody{
		MapVersion: smap.Version(),
		ShardIndex: uint16(smap.Index(st.addr)),
		ShardCount: uint16(smap.Len()),
		Sensors:    owned,
		Evict:      evict,
	}
	ctx, cancel := c.ctlCtx()
	acked, err := c.client.assign(ctx, st.addr, body)
	cancel()
	if err != nil {
		return
	}
	c.obs.assigns.Inc()
	c.mu.Lock()
	st.last.MapVersion = acked
	c.mu.Unlock()
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
// own goroutine and connection, so one stalled shard eating its full
// probeTimeout does not stretch the period for the others, and a shard
// whose probe (or the change or refill after it) still runs is skipped.
// The returned group is done when every probe the round started, and
// whatever followed it, has ended.
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
			c.mu.Lock()
			st.probing = false
			c.mu.Unlock()
		}()
	}
	return &round
}

// probe sends one shard a HEALTH. HealthMisses misses in a row mark an
// up shard down, and an answer marks a down one back up: each is a
// change. An answer above the live map's epoch (from an earlier
// coordinator) is a change too, which moves the map above it; an answer
// below it is a refill.
func (c *Coordinator) probe(st *shardState) {
	ctx, cancel := context.WithTimeout(c.ctx, probeTimeout)
	start := time.Now()
	h, err := c.client.health(ctx, st.addr)
	rtt := time.Since(start)
	cancel()
	c.mu.Lock()
	if err != nil {
		st.misses++
	} else {
		st.misses, st.last, st.lastAt, st.lastRTT = 0, h, time.Now(), rtt
		c.floor = max(c.floor, h.MapVersion)
	}
	version := c.smap.Version()
	down := err != nil && st.up && st.misses >= c.cfg.HealthMisses
	up := err == nil && (!st.up || h.MapVersion > version)
	behind := err == nil && st.up && h.MapVersion < version
	c.mu.Unlock()
	// A change fails only when the coordinator is closing or the shard
	// was removed since the probe began: either way there is no more to do.
	switch {
	case down:
		c.obs.flaps.Inc()
		_ = c.change(st.addr, stepDown)
	case up:
		_ = c.change(st.addr, stepUp)
	case behind:
		c.refill(st)
	}
}

// refill brings an up shard that is behind the live map's epoch (it
// restarted between probes, or missed an ASSIGN) back onto it: each
// window it owns is copied to it from the sensor's other owners, and the
// epoch is sent again, under a read hold of c.member.
func (c *Coordinator) refill(st *shardState) {
	c.member.RLock()
	defer c.member.RUnlock()
	c.mu.Lock()
	smap, seen := c.smap, slices.Sorted(maps.Keys(c.latest))
	current := smap.Index(st.addr) < 0 || st.last.MapVersion >= smap.Version()
	c.mu.Unlock()
	if current {
		return // removed, or acknowledged an ASSIGN, since its probe
	}
	for _, sensor := range smap.Owned(st.addr, seen, c.cfg.Replicas) {
		others := slices.DeleteFunc(smap.Owners(sensor, c.cfg.Replicas), func(a string) bool { return a == st.addr })
		c.copyWindow(sensor, others, st.addr)
	}
	c.assign(st, smap, seen)
}
