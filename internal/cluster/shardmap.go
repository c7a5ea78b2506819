// Package cluster turns the single-process innetd deployment into a
// horizontally sharded service: a coordinator process partitions the
// sensor space across N detector shard processes — each an innetd-style
// unit running internal/ingest with an in-process peer mesh — routes
// ingested readings to the shards that own them, monitors shard health,
// and serves a single merged outlier view.
//
// # Shard map
//
// Sensor → shard assignment uses rendezvous (highest-random-weight)
// hashing over the shard control addresses: every (sensor, shard) pair
// hashes to a weight and a sensor is owned by the top-Replicas shards by
// weight. The assignment is consistent — adding or removing one shard
// moves only the sensors that gained or lost that shard in their top set,
// never reshuffles the rest — and needs no state beyond the shard list,
// so coordinator and tests can both derive it. The coordinator's map
// holds only the shards that are up, so a shard marked down or back up
// moves sensors the way a removal or an add does. Replicas > 1 is the
// boundary-sensor replication knob: each reading is routed to several
// shards, buying exact answers through single-shard failures at the cost
// of proportional ingest fan-out.
//
// # Merge semantics
//
// The coordinator's outlier query fans ESTIMATE frames to every live
// shard; each returns a snapshot of its union-of-windows, and the
// coordinator computes On over the union of snapshots — the same
// computation baseline.Compute performs over per-sensor windows, so the
// merged answer equals the single-process (and centralized) answer on
// the same data, exactly. Compact alternatives (merging per-shard top-k
// sets, with or without their support sets) are NOT exact for rankers
// with the paper's axioms: a candidate's rank re-evaluated against the
// union of top-k sets can exceed its rank against the full data, and a
// globally-outlying point can hide below its shard's top-k (DESIGN.md
// works a counterexample). Exactness therefore costs shipping windows,
// which stay small by construction — the sliding window bounds them.
//
// # Identity
//
// The coordinator stamps every reading with a per-sensor sequence number
// before fan-out (ingest.Reading.Seq), so replica shards mint identical
// PointIDs for the same datum regardless of delivery order or loss, and
// the merge deduplicates replicas by ID instead of double-counting.
package cluster

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sort"
	"strings"

	"innet/internal/core"
)

// ShardMap is one immutable epoch of the sensor→shard assignment: a
// version counter and the sorted shard address list. Mutations return a
// new map with the version advanced; the coordinator publishes the
// version to shards via ASSIGN frames so both sides can tell stale
// assignments from current ones.
type ShardMap struct {
	version uint64
	shards  []string
}

// NewShardMap builds version 1 of the map over the given shard control
// addresses (deduplicated, sorted).
func NewShardMap(shards []string) *ShardMap {
	s := slices.Clone(shards)
	sort.Strings(s)
	s = slices.Compact(s)
	return &ShardMap{version: 1, shards: s}
}

// Version returns the map epoch.
func (m *ShardMap) Version() uint64 { return m.version }

// Shards returns the sorted shard addresses. Callers must not mutate it.
func (m *ShardMap) Shards() []string { return m.shards }

// Len returns the number of shards.
func (m *ShardMap) Len() int { return len(m.shards) }

// Index returns the shard's slot in the sorted list, or -1.
func (m *ShardMap) Index(addr string) int {
	i, ok := slices.BinarySearch(m.shards, addr)
	if !ok {
		return -1
	}
	return i
}

// WithShard returns a new map with the shard added and the version
// advanced; adding a present shard still advances the version (the
// caller decided an epoch boundary happened).
func (m *ShardMap) WithShard(addr string) *ShardMap {
	next := NewShardMap(append(slices.Clone(m.shards), addr))
	next.version = m.version + 1
	return next
}

// WithoutShard returns a new map with the shard removed and the version
// advanced.
func (m *ShardMap) WithoutShard(addr string) *ShardMap {
	kept := make([]string, 0, len(m.shards))
	for _, s := range m.shards {
		if s != addr {
			kept = append(kept, s)
		}
	}
	next := NewShardMap(kept)
	next.version = m.version + 1
	return next
}

// rendezvousWeight hashes one (shard, sensor) pair: FNV-1a over the pair
// followed by a splitmix64 finalizer. Raw FNV is too weak here — shard
// addresses differ in one digit and sensors in the low bytes, and the
// resulting weights can leave a shard winning no sensors at all; the
// finalizer's avalanche restores balance.
func rendezvousWeight(addr string, sensor core.NodeID) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	h.Write([]byte{0, byte(sensor >> 8), byte(sensor)})
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// weighted is one shard's rendezvous weight for one sensor.
type weighted struct {
	addr string
	w    uint64
}

func weigh(addr string, sensor core.NodeID) weighted {
	return weighted{addr: addr, w: rendezvousWeight(addr, sensor)}
}

// compare orders two shards as the sensor's rendezvous order does: the
// higher weight first, ties by address.
func (a weighted) compare(b weighted) int {
	return cmp.Or(cmp.Compare(b.w, a.w), strings.Compare(a.addr, b.addr))
}

// Owners returns the replicas shards owning the sensor: the first
// replicas shards by rendezvous order (clamped to the shard count).
func (m *ShardMap) Owners(sensor core.NodeID, replicas int) []string {
	ws := make([]weighted, len(m.shards))
	for i, addr := range m.shards {
		ws[i] = weigh(addr, sensor)
	}
	slices.SortFunc(ws, weighted.compare)
	out := make([]string, min(max(replicas, 1), len(ws)))
	for i := range out {
		out[i] = ws[i].addr
	}
	return out
}

// Owned returns, from the given sensors, those the shard owns under the
// given replication factor, sorted.
func (m *ShardMap) Owned(addr string, sensors []core.NodeID, replicas int) []core.NodeID {
	var out []core.NodeID
	for _, s := range sensors {
		if slices.Contains(m.Owners(s, replicas), addr) {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}
