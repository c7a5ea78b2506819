package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/obs"
	"innet/internal/protocol"
	"innet/internal/store"
)

// Coordinator errors.
var (
	ErrNoHealthyShard = errors.New("cluster: no healthy shard owns the sensor")
	ErrRouteFailed    = errors.New("cluster: no owning shard accepted the reading")
	ErrUnknownShard   = errors.New("cluster: unknown shard")
	ErrClosed         = errors.New("cluster: coordinator closed")
)

// Config parameterizes a Coordinator.
type Config struct {
	// Detector mirrors the shards' detector configuration; Ranker and N
	// drive the estimate merge, Window drives the coordinator-side
	// staleness gate. Required (Node is ignored).
	Detector core.Config

	// Shards lists the initial shard control addresses. At least one is
	// required.
	Shards []string

	// Replicas is how many shards each sensor's readings are routed to
	// (the boundary-sensor replication factor). With Replicas ≥ 2 the
	// merged answer stays exact through any single shard failure,
	// because every point survives on another shard. Default 1.
	Replicas int

	// QueryTimeout bounds the whole estimate fan-out. Default 2s.
	QueryTimeout time.Duration

	// HealthInterval is the probe period. Default 500ms.
	HealthInterval time.Duration

	// HealthMisses is how many consecutive probe failures mark a shard
	// down. Default 3.
	HealthMisses int

	// RetryAttempts bounds per-RPC retries on the lossy control wire.
	// Default 3.
	RetryAttempts int

	// Store, when set, persists the coordinator's per-sensor identity
	// state (next sequence number, newest timestamp): every batch that
	// advances a sensor's counters appends the new floors, and startup
	// recovery reads them back before falling back to the shard-window
	// fan. Nil keeps identity state purely in memory, recovered only
	// from surviving shard windows. The Coordinator uses the store but
	// does not own it; the caller closes it after Close.
	Store store.Store

	// Logger receives structured fleet and query events. Every record
	// that belongs to a query carries its trace ID as a "trace" attr.
	// Nil discards.
	Logger *slog.Logger

	// SlowQuery, when positive, logs every merged-estimate query that
	// takes at least this long through Logger (at Warn, with its trace
	// ID). Zero disables the log.
	SlowQuery time.Duration

	// TraceSink, when set, receives every recorded span as one JSON line
	// (the -trace-file flag); the in-memory ring behind /debug/traces and
	// /debug/merges records them regardless.
	TraceSink io.Writer

	// SpanCapacity bounds the span flight-recorder ring that /debug/traces
	// serves and /debug/merges groups. Default 2048.
	SpanCapacity int
}

// probeTimeout bounds one health probe, independently of the probe
// period: a short period keeps down-detection snappy without a scheduling
// hiccup on a loaded host counting as a miss.
const probeTimeout = time.Second

// identityCompactEvery bounds the identity WAL: after this many appended
// identity updates the store is compacted down to one record per sensor.
const identityCompactEvery = 4096

func (c *Config) applyDefaults() {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 2 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthMisses < 1 {
		c.HealthMisses = 3
	}
	if c.RetryAttempts < 1 {
		c.RetryAttempts = 3
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SpanCapacity < 1 {
		c.SpanCapacity = 2048
	}
}

// shardState is the coordinator's view of one shard process.
type shardState struct {
	addr    string
	udp     *net.UDPAddr
	up      bool // last probe round reached it (optimistic at birth)
	synced  bool // acknowledged the current map version
	syncing bool // a resync goroutine is in flight
	probing bool // a health probe is in flight
	misses  int
	last    protocol.HealthBody
	lastAt  time.Time
	lastRTT time.Duration // last successful probe's round trip
}

// sensorRoute is the coordinator-side per-sensor ingest state: the next
// sequence number to stamp and the newest timestamp seen (for the same
// staleness gate the shards apply, so identity assignment is
// deterministic no matter which replicas are reachable).
type sensorRoute struct {
	nextSeq uint32
	latest  time.Duration
}

// Stats snapshots the coordinator counters for /metrics.
type Stats struct {
	Routed          uint64 // readings accepted by ≥1 owning shard
	Rejected        uint64 // readings failing validation
	Stale           uint64 // readings older than the window
	Failed          uint64 // readings no owning shard accepted
	Reroutes        uint64 // readings routed past a down owner
	Frames          uint64 // READINGS frames sent
	Merges          uint64 // estimate merges served
	MergesDegraded  uint64 // merges with ≥1 shard missing
	MergesCompact   uint64 // merges served by the compact iterative path
	MergeFallbacks  uint64 // compact merges that fell back to full
	MergeRounds     uint64 // compact-merge rounds driven, total
	MergeBytes      uint64 // compact-merge point payload bytes, both directions
	MergeFullBytes  uint64 // full-path window-snapshot payload bytes received
	Recovered       uint64 // sensors whose identity counters were recovered at startup
	IdentitySource  string // where startup recovery got them: store, shard-fan, none
	WALErrors       uint64 // failed identity-store appends (routing keeps going)
	Assigns         uint64 // ASSIGN epochs acknowledged
	HandoffSensors  uint64 // sensors restored via handoff
	HandoffPoints   uint64 // points moved via handoff
	Flaps           uint64 // up→down transitions observed
	TruncatedFrames uint64 // control datagrams dropped as kernel-truncated
	ShardsUp        int
	ShardsTotal     int
	Sensors         int // distinct sensors routed so far
}

// Coordinator is the cluster front door: it owns the shard map, routes
// identity-stamped readings to owning shards, probes shard health,
// resynchronizes rejoining shards (ASSIGN + window copy), and serves
// the merged outlier view. All methods are safe for concurrent use.
type Coordinator struct {
	cfg    Config
	client *ctlClient

	mu      sync.Mutex
	smap    *ShardMap
	shards  map[string]*shardState
	sensors map[core.NodeID]*sensorRoute
	closed  bool
	// lastOutliers is the last answer a query served: the full path ranks
	// its union from it, as a detector ranks from its previous estimate.
	lastOutliers []core.Point

	routed, rejected, stale, failed atomic.Uint64
	reroutes, frames                atomic.Uint64
	merges, mergesDegraded          atomic.Uint64
	mergesCompact, mergeFallbacks   atomic.Uint64
	mergeRounds, mergeBytes         atomic.Uint64
	mergeFullBytes, recovered       atomic.Uint64
	assigns, handoffSen, handoffPts atomic.Uint64
	flaps                           atomic.Uint64

	// Identity durability (wal is nil and inert when cfg.Store is nil).
	identitySource atomic.Value // string: store, shard-fan, none
	wal            *store.Policy

	// traceIDs mints the trace ID of every query and ingest batch; IDs
	// never repeat within this process, so a compact merge uses its
	// query's trace as its merge-session ID (see merge.go).
	traceIDs *traceIDGen

	obs      *coordObs     // metrics registry + latency histograms, built in New
	traceLog *obs.TraceLog // span flight recorder behind /debug/traces and /debug/merges

	ctx        context.Context
	cancel     context.CancelFunc
	healthDone chan struct{}
}

// New validates cfg, binds the control socket, pushes the initial shard
// map, and starts the health loop.
func New(cfg Config) (*Coordinator, error) {
	cfg.applyDefaults()
	probe := cfg.Detector
	probe.Node = 1
	if _, err := core.NewDetector(probe); err != nil {
		return nil, err
	}
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard is required")
	}
	client, err := newCtlClient()
	if err != nil {
		return nil, err
	}
	smap := NewShardMap(cfg.Shards)
	shards := make(map[string]*shardState, smap.Len())
	for _, addr := range smap.Shards() {
		udp, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			client.close()
			return nil, fmt.Errorf("cluster: resolve shard %q: %w", addr, err)
		}
		// Optimistic birth: route immediately; the health loop demotes
		// unreachable shards within HealthMisses probes.
		shards[addr] = &shardState{addr: addr, udp: udp, up: true}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		client:     client,
		smap:       smap,
		shards:     shards,
		sensors:    make(map[core.NodeID]*sensorRoute),
		traceIDs:   newTraceIDGen(),
		ctx:        ctx,
		cancel:     cancel,
		healthDone: make(chan struct{}),
	}
	c.obs = newCoordObs(c)
	c.traceLog = obs.NewTraceLog(cfg.SpanCapacity)
	if cfg.TraceSink != nil {
		c.traceLog.SetSink(cfg.TraceSink)
	}
	// Install the RPC timing hook before the first exchange — recovery
	// below already talks to shards — so the field is never written
	// concurrently with a read.
	client.onRTT = c.obs.rpcObserve
	c.wal = store.NewPolicy(cfg.Store, identityCompactEvery, c.traceLog, c.obs.walTiming,
		func(context.Context) (store.State, error) {
			return store.State{Identities: c.identitySnapshot()}, nil
		})
	c.recoverIdentities()
	go c.healthLoop()
	return c, nil
}

// Traces returns the coordinator's span flight recorder — the ring
// /debug/traces serves.
func (c *Coordinator) Traces() *obs.TraceLog { return c.traceLog }

// recoverIdentities closes the restart hole in coordinator-minted point
// identity: per-sensor sequence counters live in coordinator memory, so
// a coordinator restarted inside a live window used to re-mint in-window
// PointIDs. Recovery reads the coordinator's own identity store first —
// it is authoritative (it covers sensors whose points already aged out
// of every shard window) and does not depend on any shard being up.
// Only without a store, or with an empty one, does it fall back to
// fanning window-snapshot queries to every configured shard and seeding
// each sensor's counter past the largest sequence observed — and its
// staleness clock to the newest birth. The fallback is best-effort by
// design: a shard that is down contributes nothing (its points either
// survive on a replica or age out), and an empty cluster costs one probe
// round trip per shard.
func (c *Coordinator) recoverIdentities() {
	c.identitySource.Store("none")
	if c.cfg.Store != nil {
		st, err := c.cfg.Store.Load()
		if err != nil {
			c.cfg.Logger.Warn("identity store load failed, falling back to shard fan", "err", err)
		} else if len(st.Identities) > 0 {
			c.mu.Lock()
			for _, id := range st.Identities {
				sr := c.sensors[id.Sensor]
				if sr == nil {
					sr = &sensorRoute{}
					c.sensors[id.Sensor] = sr
				}
				if id.NextSeq > sr.nextSeq {
					sr.nextSeq = id.NextSeq
				}
				if id.Latest > sr.latest {
					sr.latest = id.Latest
				}
			}
			n := len(c.sensors)
			c.mu.Unlock()
			c.recovered.Store(uint64(n))
			c.identitySource.Store("store")
			c.cfg.Logger.Info("recovered identity counters", "source", "store", "sensors", n)
			return
		}
	}
	c.mu.Lock()
	targets := make([]*shardState, 0, len(c.shards))
	for _, st := range c.shards {
		targets = append(targets, st)
	}
	c.mu.Unlock()

	snaps := make([][]core.Point, len(targets))
	var wg sync.WaitGroup
	for i, st := range targets {
		wg.Add(1)
		go func(i int, st *shardState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(c.ctx, probeTimeout)
			defer cancel()
			pts, _, err := c.client.estimate(ctx, st.udp, 0, 0)
			if err == nil {
				snaps[i] = pts
			}
		}(i, st)
	}
	wg.Wait()

	c.mu.Lock()
	for _, pts := range snaps {
		for _, p := range pts {
			sr := c.sensors[p.ID.Origin]
			if sr == nil {
				sr = &sensorRoute{}
				c.sensors[p.ID.Origin] = sr
			}
			if p.ID.Seq >= sr.nextSeq {
				sr.nextSeq = p.ID.Seq + 1
			}
			if p.Birth > sr.latest {
				sr.latest = p.Birth
			}
		}
	}
	n := len(c.sensors)
	c.mu.Unlock()
	if n > 0 {
		c.recovered.Store(uint64(n))
		c.identitySource.Store("shard-fan")
		c.cfg.Logger.Info("recovered identity counters", "source", "shard-fan", "sensors", n)
		// Seed the store so the next restart recovers without shards.
		_ = c.wal.PutIdentities(c.ctx, 0, c.identitySnapshot())
	}
}

// IdentitySource reports where startup recovery found the identity
// counters: "store", "shard-fan", or "none".
func (c *Coordinator) IdentitySource() string {
	if s, ok := c.identitySource.Load().(string); ok {
		return s
	}
	return "none"
}

// identitySnapshot copies the full per-sensor identity state.
func (c *Coordinator) identitySnapshot() []store.Identity {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]store.Identity, 0, len(c.sensors))
	for id, sr := range c.sensors {
		out = append(out, store.Identity{Sensor: id, NextSeq: sr.nextSeq, Latest: sr.latest})
	}
	return out
}

// Close stops the health loop and releases the control socket.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	<-c.healthDone
	// Leave the identity store compact: one record per sensor, no WAL
	// suffix for the next start to replay.
	_ = c.wal.Compact(context.Background())
	return c.client.close()
}

// ShardMapSnapshot returns the current map (immutable).
func (c *Coordinator) ShardMapSnapshot() *ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.smap
}

// ShardInfo is one shard's externally visible state.
type ShardInfo struct {
	Addr          string    `json:"addr"`
	Up            bool      `json:"up"`
	Synced        bool      `json:"synced"`
	Misses        int       `json:"misses"`
	Sensors       int       `json:"sensors"`     // fleet size the shard last reported
	MapVersion    uint64    `json:"map_version"` // epoch the shard last reported
	LastSeen      time.Time `json:"last_seen,omitzero"`
	LastRTTMS     float64   `json:"last_rtt_ms"`    // last successful health probe's round trip
	MergeSessions int       `json:"merge_sessions"` // merge-session cache occupancy the shard last reported
}

// ShardInfos returns every shard's state, sorted by address.
func (c *Coordinator) ShardInfos() []ShardInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardInfo, 0, len(c.shards))
	for _, st := range c.shards {
		out = append(out, ShardInfo{
			Addr:          st.addr,
			Up:            st.up,
			Synced:        st.synced,
			Misses:        st.misses,
			Sensors:       int(st.last.Sensors),
			MapVersion:    st.last.MapVersion,
			LastSeen:      st.lastAt,
			LastRTTMS:     durMS(st.lastRTT),
			MergeSessions: int(st.last.Sessions),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	up, total, sensors := 0, len(c.shards), len(c.sensors)
	for _, st := range c.shards {
		if st.up {
			up++
		}
	}
	c.mu.Unlock()
	return Stats{
		Routed:          c.routed.Load(),
		Rejected:        c.rejected.Load(),
		Stale:           c.stale.Load(),
		Failed:          c.failed.Load(),
		Reroutes:        c.reroutes.Load(),
		Frames:          c.frames.Load(),
		Merges:          c.merges.Load(),
		MergesDegraded:  c.mergesDegraded.Load(),
		MergesCompact:   c.mergesCompact.Load(),
		MergeFallbacks:  c.mergeFallbacks.Load(),
		MergeRounds:     c.mergeRounds.Load(),
		MergeBytes:      c.mergeBytes.Load(),
		MergeFullBytes:  c.mergeFullBytes.Load(),
		Recovered:       c.recovered.Load(),
		IdentitySource:  c.IdentitySource(),
		WALErrors:       c.wal.Errors(),
		Assigns:         c.assigns.Load(),
		HandoffSensors:  c.handoffSen.Load(),
		HandoffPoints:   c.handoffPts.Load(),
		Flaps:           c.flaps.Load(),
		TruncatedFrames: c.client.truncated.Load(),
		ShardsUp:        up,
		ShardsTotal:     total,
		Sensors:         sensors,
	}
}

// Ingest validates, stamps and routes one reading; see IngestBatch.
func (c *Coordinator) Ingest(r ingest.Reading) error {
	return c.IngestBatch([]ingest.Reading{r})[0]
}

// IngestBatch validates, identity-stamps and routes a batch of readings
// to the healthy shards owning each sensor, one READINGS frame per shard
// chunk. The returned slice has one entry per input reading: nil when at
// least one owning shard accepted it.
func (c *Coordinator) IngestBatch(rs []ingest.Reading) []error {
	errs := make([]error, len(rs))
	// One trace ID covers the whole batch: the UDP and HTTP ingest front
	// doors hand the coordinator batches, not single readings, and the
	// batch is the unit that fans out and persists.
	trace := c.traceIDs.next()
	startBatch := time.Now()

	// Phase 1 (under the lock): gate, stamp, group by shard. Identity
	// assignment must be serialized so replicas agree on sequence
	// numbers; the network sends happen outside the lock.
	type routed struct {
		reading int // index into rs/errs
	}
	perShard := make(map[string][]core.Point)
	perShardIdx := make(map[string][]routed)
	accepted := make([]int, len(rs))            // owning shards that took reading i
	var advanced map[core.NodeID]store.Identity // identity floors moved by this batch

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
			c.rejected.Add(1)
			continue
		}
		sr := c.sensors[r.Sensor]
		if sr == nil {
			sr = &sensorRoute{}
			c.sensors[r.Sensor] = sr
		}
		if window > 0 && r.At < sr.latest-window {
			errs[i] = fmt.Errorf("%w: %v is older than %v − %v", ingest.ErrStale, r.At, sr.latest, window)
			c.stale.Add(1)
			continue
		}
		owners, rerouted := c.healthyOwnersLocked(r.Sensor)
		if len(owners) == 0 {
			// Bail before touching the sensor's gate or counter: a
			// reading that goes nowhere must not make the coordinator
			// stricter than the shards (a later reading the shards
			// would accept would be rejected as stale here).
			errs[i] = fmt.Errorf("%w: sensor %d", ErrNoHealthyShard, r.Sensor)
			c.failed.Add(1)
			continue
		}
		if rerouted {
			c.reroutes.Add(1)
		}
		if r.At > sr.latest {
			sr.latest = r.At
		}
		seq := sr.nextSeq
		if r.HasSeq {
			seq = r.Seq
		}
		if seq >= sr.nextSeq {
			sr.nextSeq = seq + 1
		}
		if c.cfg.Store != nil {
			if advanced == nil {
				advanced = make(map[core.NodeID]store.Identity)
			}
			advanced[r.Sensor] = store.Identity{Sensor: r.Sensor, NextSeq: sr.nextSeq, Latest: sr.latest}
		}
		p := core.NewPoint(r.Sensor, seq, r.At, r.Values...)
		for _, addr := range owners {
			perShard[addr] = append(perShard[addr], p)
			perShardIdx[addr] = append(perShardIdx[addr], routed{reading: i})
		}
	}
	c.mu.Unlock()

	// Persist the identity floors this batch advanced BEFORE the fan-out
	// acknowledges anything: once a shard holds a point, a restarted
	// coordinator must never re-mint its identity.
	if len(advanced) > 0 {
		ids := make([]store.Identity, 0, len(advanced))
		for _, id := range advanced {
			ids = append(ids, id)
		}
		_ = c.wal.PutIdentities(c.ctx, trace, ids)
	}

	// Phase 2: fan the per-shard batches out concurrently. A failed
	// send only misses its ack — the health probes own the up/down
	// verdict.
	var (
		wg    sync.WaitGroup
		ackMu sync.Mutex
	)
	for addr, pts := range perShard {
		wg.Add(1)
		go func(addr string, pts []core.Point, idx []routed) {
			defer wg.Done()
			if !c.sendReadings(addr, trace, pts) {
				return
			}
			ackMu.Lock()
			defer ackMu.Unlock()
			for _, rt := range idx {
				accepted[rt.reading]++
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
			c.failed.Add(1)
			failedN++
			continue
		}
		c.routed.Add(1)
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

// sendReadings ships one shard's batch as chunked READINGS frames with
// retries, reporting whether every chunk was acknowledged. trace is the
// ingest batch's trace ID, stamped onto the frames.
func (c *Coordinator) sendReadings(addr string, trace uint64, pts []core.Point) bool {
	st := c.shardState(addr)
	if st == nil {
		return false
	}
	return c.sendChunks(pts, func(ctx context.Context, chunk []core.Point) error {
		_, err := c.client.readings(ctx, st.udp, 0, trace, chunk)
		if err == nil {
			c.frames.Add(1)
		}
		return err
	}) == nil
}

// sendChunks ships pts in byte-budgeted chunks, each retried
// independently (re-delivery is a no-op: the points carry their
// identities), and stops at the first chunk that fails.
func (c *Coordinator) sendChunks(pts []core.Point, send func(context.Context, []core.Point) error) error {
	for _, chunk := range chunkByBytes(pts, maxFrameBytes) {
		if len(chunk) == 0 {
			continue
		}
		if err := c.retryCtl(c.ctx, func(ctx context.Context) error { return send(ctx, chunk) }); err != nil {
			return err
		}
	}
	return nil
}

// retryCtl runs one shard exchange under the standard policy:
// RetryAttempts tries, each with an equal share of QueryTimeout.
func (c *Coordinator) retryCtl(ctx context.Context, fn func(context.Context) error) error {
	return retry(ctx, c.cfg.RetryAttempts, c.cfg.QueryTimeout/time.Duration(c.cfg.RetryAttempts), fn)
}

func (c *Coordinator) shardState(addr string) *shardState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards[addr]
}

// MergeResult is one merged outlier view.
type MergeResult struct {
	Outliers []core.Point // On over the union of shard windows
	// Window is the point set the answer was computed over: with
	// MergeFull the merged window itself (tests), with
	// MergeCompact the coordinator's accumulated candidate set C — a
	// provably sufficient subset, not the whole window.
	Window []core.Point

	Mode         string // MergeCompact or MergeFull (after any fallback)
	Rounds       int    // compact rounds driven (0 on the full path)
	PayloadBytes int    // point payload moved for this query
	Trace        uint64 // the query's trace ID (key into /debug/traces)

	MapVersion  uint64
	ShardsTotal int // shards in the map
	ShardsOK    int // shards that answered
	Degraded    bool
}

// MergedEstimateMode serves the cluster-wide outlier estimate — by
// construction the same answer baseline.Compute gives over the union of
// all sensor windows. MergeCompact (also mode "") runs the iterative
// Algorithm 1 exchange, falling back to the full path when a shard
// cannot play or the round budget runs out; MergeFull fans ESTIMATE
// snapshot queries to every up shard and computes On over the union.
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
		c.merges.Add(1)
		if res.Degraded {
			c.mergesDegraded.Add(1)
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
	total := c.smap.Len()
	hint := c.lastOutliers
	var targets []*shardState
	for _, addr := range c.smap.Shards() {
		if st := c.shards[addr]; st != nil && st.up {
			targets = append(targets, st)
		}
	}
	if len(targets) == 0 {
		// Every shard looks down (or the probes are flapping): query
		// them all anyway — a shard that answers is better evidence
		// than a stale verdict, and one that is really down just eats
		// its timeout.
		for _, addr := range c.smap.Shards() {
			if st := c.shards[addr]; st != nil {
				targets = append(targets, st)
			}
		}
	}
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(ctx, c.cfg.QueryTimeout)
	defer cancel()

	if mode == MergeCompact {
		// The compact path needs every target to answer every round, so
		// give it half the query budget and keep the rest for the
		// full-window fallback should a shard die mid-session.
		compactCtx, ccancel := context.WithTimeout(ctx, c.cfg.QueryTimeout/2)
		cres, err := c.compactMerge(compactCtx, targets, traceID)
		ccancel()
		c.mergeRounds.Add(uint64(cres.rounds))
		c.mergeBytes.Add(uint64(cres.payload))
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
			c.mergesCompact.Add(1)
			return finish(res, nil)
		}
		c.mergeFallbacks.Add(1)
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

	// Each shard's reply lands in its own slot; the union is one merge of
	// them once every shard has answered or given up.
	type reply struct {
		pts   []core.Point
		bytes int
		ok    bool
	}
	replies := make([]reply, len(targets))
	var wg sync.WaitGroup
	for i, st := range targets {
		wg.Add(1)
		go func(rep *reply, st *shardState) {
			defer wg.Done()
			shardStart := time.Now()
			var pts []core.Point
			var nb int
			err := c.retryCtl(ctx, func(ctx context.Context) error {
				var err error
				pts, nb, err = c.client.estimate(ctx, st.udp, traceID, 0)
				return err
			})
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
				*rep = reply{pts: pts, bytes: nb, ok: true}
			}
		}(&replies[i], st)
	}
	wg.Wait()

	windows := make([][]core.Point, 0, len(replies))
	ok, bytes := 0, 0
	for _, rep := range replies {
		if rep.ok {
			windows = append(windows, rep.pts)
			ok++
			bytes += rep.bytes
		}
	}
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
	c.mergeFullBytes.Add(uint64(bytes))
	if ok == 0 && total > 0 {
		return finish(res, errors.New("cluster: no shard answered the estimate query"))
	}
	return finish(res, nil)
}

// AddShard registers a new shard and rebalances: the map version
// advances, every shard is re-ASSIGNed, and sensors gaining the new
// shard as an owner are handed off to it by their current owners.
func (c *Coordinator) AddShard(addr string) error {
	udp, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
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
	c.shards[addr] = &shardState{addr: addr, udp: udp, up: true}
	seen := c.seenSensorsLocked()
	c.mu.Unlock()
	// Adding a shard changes no other shard's rendezvous score, so the
	// new shard is the only owner any sensor can gain.
	for _, sensor := range seen {
		if !slices.Contains(newMap.Owners(sensor, c.cfg.Replicas), addr) {
			continue
		}
		from, to := c.firstUp(oldMap.Owners(sensor, c.cfg.Replicas)), c.firstUp([]string{addr})
		if from != nil && to != nil {
			c.copyWindow(sensor, from, to)
		}
	}

	c.mu.Lock()
	c.smap = newMap
	for _, st := range c.shards {
		st.synced = false
	}
	c.mu.Unlock()
	c.cfg.Logger.Info("shard added", "shard", addr, "map_version", newMap.Version())
	c.kickResyncs()
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
			if c.firstUp(remove(oldMap.Owners(sensor, c.cfg.Replicas), addr)) != nil {
				continue
			}
			if to := c.firstUp(newMap.Owners(sensor, c.cfg.Replicas)); to != nil {
				c.copyWindow(sensor, st, to)
			}
		}
	}

	c.mu.Lock()
	c.smap = newMap
	delete(c.shards, addr)
	for _, other := range c.shards {
		other.synced = false
	}
	c.mu.Unlock()
	c.cfg.Logger.Info("shard removed", "shard", addr, "map_version", newMap.Version())
	c.kickResyncs()
	return nil
}

func remove(addrs []string, addr string) []string {
	out := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if a != addr {
			out = append(out, a)
		}
	}
	return out
}

// firstUp returns the first shard among addrs the health loop considers
// up, or nil.
func (c *Coordinator) firstUp(addrs []string) *shardState {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range addrs {
		if st := c.shards[a]; st != nil && st.up {
			return st
		}
	}
	return nil
}

// copyWindow copies one sensor's window from a shard that holds it to
// one that should: an ESTIMATE for that sensor from from, then
// byte-budgeted READINGS flagged FlagTransfer to to. It is the one
// window-copy path behind AddShard, RemoveShard's drain and resync. A failed copy is not retried here:
// resync repeats it wherever a surviving copy exists.
func (c *Coordinator) copyWindow(sensor core.NodeID, from, to *shardState) {
	var pts []core.Point
	err := c.retryCtl(c.ctx, func(ctx context.Context) (err error) {
		pts, _, err = c.client.estimate(ctx, from.udp, 0, sensor)
		return err
	})
	if err != nil || len(pts) == 0 {
		return
	}
	err = c.sendChunks(pts, func(ctx context.Context, chunk []core.Point) error {
		_, err := c.client.readings(ctx, to.udp, protocol.FlagTransfer, 0, chunk)
		return err
	})
	if err != nil {
		return
	}
	c.handoffSen.Add(1)
	c.handoffPts.Add(uint64(len(pts)))
	c.cfg.Logger.Info("sensor handed off", "sensor", uint64(sensor), "points", len(pts),
		"from", from.addr, "to", to.addr)
}

func (c *Coordinator) seenSensorsLocked() []core.NodeID {
	out := make([]core.NodeID, 0, len(c.sensors))
	for id := range c.sensors {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// healthLoop probes every shard each interval and drives the
// up/down/resync state machine. Probes are fire-and-forget with a
// per-shard in-flight guard: one unreachable shard eating its full
// ProbeTimeout must not stretch the probe period for the healthy ones.
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
				h, err := c.client.health(ctx, st.udp)
				cancel()
				if err != nil {
					c.noteMiss(st)
				} else {
					c.noteUp(st, h, time.Since(probeStart))
				}
				c.mu.Lock()
				st.probing = false
				c.mu.Unlock()
			}(st)
		}
	}
}

func (c *Coordinator) noteMiss(st *shardState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st.misses++
	if st.misses >= c.cfg.HealthMisses && st.up {
		st.up = false
		st.synced = false
		c.flaps.Add(1)
		c.cfg.Logger.Warn("shard marked down", "shard", st.addr, "misses", st.misses)
	}
}

func (c *Coordinator) noteUp(st *shardState, h protocol.HealthBody, rtt time.Duration) {
	c.mu.Lock()
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

// kickResyncs marks every up shard for resync on the new map without
// waiting for the next health tick.
func (c *Coordinator) kickResyncs() {
	c.mu.Lock()
	targets := make([]*shardState, 0, len(c.shards))
	for _, st := range c.shards {
		if st.up {
			targets = append(targets, st)
		}
	}
	c.mu.Unlock()
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
	isOwned := make(map[core.NodeID]bool, len(owned))
	for _, id := range owned {
		isOwned[id] = true
	}
	var evict []core.NodeID
	for _, id := range seen {
		if !isOwned[id] {
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
	err := c.retryCtl(c.ctx, func(ctx context.Context) error {
		_, err := c.client.assign(ctx, st.udp, body)
		return err
	})
	if err != nil {
		return // next health tick retries
	}
	c.assigns.Add(1)

	for _, sensor := range owned {
		if from := c.firstUp(remove(smap.Owners(sensor, c.cfg.Replicas), st.addr)); from != nil {
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

// traceHex renders a trace ID the way every JSON surface does — 16 hex
// digits — so log lines grep against /debug/traces.
func traceHex(id uint64) string { return fmt.Sprintf("%016x", id) }
