// Package store is the durability layer under the streaming system: it
// persists the two kinds of state a restart used to lose — the readings
// that make up each shard's sliding windows, and the coordinator's
// per-sensor identity counters (next sequence number, newest timestamp) —
// so daemons restart warm instead of empty.
//
// The package deliberately exposes one narrow interface, Store, with two
// implementations held to the same contract:
//
//   - Mem, the factored-out form of the pre-durability behavior: state
//     lives in process memory and Load returns exactly what was appended.
//     It exists so the persistent implementation can be differentially
//     tested against it — every operation sequence must leave both stores
//     loading identical State.
//   - File, a stdlib-only append-only write-ahead log plus a periodically
//     rewritten snapshot file. Appends go to the WAL (CRC-framed records,
//     optionally fsynced); Compact atomically rewrites the snapshot from
//     the live state and truncates the WAL. Replay = snapshot + WAL, with
//     the WAL's torn tail (a crash mid-append) truncated to the longest
//     valid prefix.
//
// The invariant the differential and crash-recovery tests pin is
// replay ≡ in-memory: a process that appends, crashes at any byte
// boundary, and reloads must see exactly the records that were durably
// framed at the crash point, in append order, and nothing else. Readings
// carry full point identity (sensor, seq, birth, values), so re-delivery
// after an unclean compaction is idempotent — the detector dedups by
// PointID — which is what lets the snapshot rotation stay simple (rename
// then truncate, no atomic multi-file commit needed).
package store

import (
	"slices"
	"sync"
	"time"

	"innet/internal/core"
)

// Record is one durable shard-side reading with its full point identity:
// what the ingest layer fed into a detector, in detector order. Replaying
// records through the same front door reproduces the same windows.
type Record struct {
	Sensor core.NodeID
	Seq    uint32
	Birth  time.Duration
	Values []float64
}

// Point converts the record back to the core point it persisted.
func (r Record) Point() core.Point {
	return core.NewPoint(r.Sensor, r.Seq, r.Birth, r.Values...)
}

// RecordOf converts a minted point to its durable form.
func RecordOf(p core.Point) Record {
	return Record{Sensor: p.ID.Origin, Seq: p.ID.Seq, Birth: p.Birth, Values: p.Value}
}

// Identity is one sensor's identity-assignment state: the next sequence
// number to mint and the newest data timestamp seen (the staleness-gate
// clock). The coordinator persists these so a restart continues the
// identity stream instead of re-minting in-window PointIDs; shards
// persist them at compaction so a warm restart restores sequence floors
// even for sensors whose high-seq points already aged out of the window.
type Identity struct {
	Sensor  core.NodeID
	NextSeq uint32
	Latest  time.Duration
}

// State is everything a replay recovers: window records in append order
// (per-sensor order is what seq reproduction rides on) and the merged
// identity floors.
type State struct {
	Records    []Record
	Identities []Identity // sorted by sensor
}

// Metrics counts the store's durability work for /metrics.
type Metrics struct {
	WALBytes    uint64 // bytes appended to the WAL
	WALRecords  uint64 // records appended to the WAL
	Fsyncs      uint64 // fsync calls issued
	Compacts    uint64 // snapshot rewrites
	Truncated   uint64 // torn-tail bytes discarded at open
	SnapCorrupt uint64 // snapshot files discarded as corrupt at Load
}

// Store persists shard window records and identity state. All methods
// are safe for concurrent use. Implementations must guarantee that after
// Compact the WAL is empty and Load reproduces exactly the compacted
// state; between compactions Load reproduces snapshot + appended suffix.
type Store interface {
	// AppendReadings appends window records to the log.
	AppendReadings(recs []Record) error
	// PutIdentities appends identity-floor updates to the log. Per
	// sensor, Load keeps the component-wise maximum across all updates.
	PutIdentities(ids []Identity) error
	// Compact atomically replaces the persisted state with exactly the
	// given records and identities and discards the log — the periodic
	// snapshot that bounds replay work and drops aged-out records.
	Compact(recs []Record, ids []Identity) error
	// Load returns the full recovered state.
	Load() (State, error)
	// Sync forces buffered appends to durable storage.
	Sync() error
	// Metrics snapshots the durability counters.
	Metrics() Metrics
	// Close syncs and releases the store.
	Close() error
}

// mergeIdentity folds one identity update into the per-sensor maxima.
func mergeIdentity(into map[core.NodeID]Identity, id Identity) {
	cur := into[id.Sensor]
	cur.Sensor = id.Sensor
	if id.NextSeq > cur.NextSeq {
		cur.NextSeq = id.NextSeq
	}
	if id.Latest > cur.Latest {
		cur.Latest = id.Latest
	}
	into[id.Sensor] = cur
}

// finishState normalizes a replayed state: duplicate records (the same
// PointID re-appended by a warm replay that crashed before compacting)
// collapse to their first occurrence, and identity floors are raised to
// cover every record, then sorted. Both implementations funnel through
// this so their Load results are comparable byte for byte.
func finishState(recs []Record, ids map[core.NodeID]Identity) State {
	type key struct {
		sensor core.NodeID
		seq    uint32
	}
	seen := make(map[key]bool, len(recs))
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		k := key{r.Sensor, r.Seq}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
		mergeIdentity(ids, Identity{Sensor: r.Sensor, NextSeq: r.Seq + 1, Latest: r.Birth})
	}
	st := State{Records: out, Identities: make([]Identity, 0, len(ids))}
	for _, id := range ids {
		st.Identities = append(st.Identities, id)
	}
	slices.SortFunc(st.Identities, func(a, b Identity) int {
		return int(a.Sensor) - int(b.Sensor)
	})
	return st
}

// Mem is the in-memory Store: the pre-durability behavior factored
// behind the interface. Nothing survives the process; Load returns what
// this instance was handed. It is the differential-testing reference and
// the ephemeral default.
type Mem struct {
	mu      sync.Mutex
	records []Record
	ids     map[core.NodeID]Identity
	metrics Metrics
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{ids: make(map[core.NodeID]Identity)}
}

// AppendReadings implements Store.
func (m *Mem) AppendReadings(recs []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		m.records = append(m.records, cloneRecord(r))
		m.metrics.WALRecords++
		m.metrics.WALBytes += uint64(walRecordSize(len(r.Values)))
	}
	return nil
}

// PutIdentities implements Store.
func (m *Mem) PutIdentities(ids []Identity) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		mergeIdentity(m.ids, id)
		m.metrics.WALRecords++
		m.metrics.WALBytes += uint64(walIdentitySize)
	}
	return nil
}

// Compact implements Store.
func (m *Mem) Compact(recs []Record, ids []Identity) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records = make([]Record, 0, len(recs))
	for _, r := range recs {
		m.records = append(m.records, cloneRecord(r))
	}
	m.ids = make(map[core.NodeID]Identity, len(ids))
	for _, id := range ids {
		mergeIdentity(m.ids, id)
	}
	m.metrics.Compacts++
	return nil
}

// Load implements Store.
func (m *Mem) Load() (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	recs := make([]Record, 0, len(m.records))
	for _, r := range m.records {
		recs = append(recs, cloneRecord(r))
	}
	ids := make(map[core.NodeID]Identity, len(m.ids))
	for k, v := range m.ids {
		ids[k] = v
	}
	return finishState(recs, ids), nil
}

// Sync implements Store (a no-op in memory).
func (m *Mem) Sync() error { return nil }

// Metrics implements Store.
func (m *Mem) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metrics
}

// Close implements Store (a no-op in memory).
func (m *Mem) Close() error { return nil }

func cloneRecord(r Record) Record {
	v := make([]float64, len(r.Values))
	copy(v, r.Values)
	r.Values = v
	return r
}
