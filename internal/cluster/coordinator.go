// The coordinator's state and lifecycle. Its roles have a file each
// (route.go, membership.go, query.go), whose header names the c.mu fields
// the role reads and writes. Here Close writes closed; Stats, ShardInfos
// and the shard-state helpers read smap, shards and latest.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
	"innet/internal/protocol"
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

	// QueryTimeout bounds the whole estimate fan-out, and every other
	// shard exchange on its own. Default 2s.
	QueryTimeout time.Duration

	// HealthInterval is the probe period. Default 500ms.
	HealthInterval time.Duration

	// HealthMisses is how many consecutive probe failures mark a shard
	// down. Default 3.
	HealthMisses int

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
	up      bool // last probe round reached it (optimistic at birth)
	synced  bool // acknowledged the current map version
	probing bool // a health probe, or the resync after it, is in flight
	misses  int
	last    protocol.HealthBody
	lastAt  time.Time
	lastRTT time.Duration // last successful probe's round trip
}

// Stats snapshots the coordinator counters for /metrics.
type Stats struct {
	Routed         uint64 // readings accepted by ≥1 owning shard
	Rejected       uint64 // readings failing validation
	Stale          uint64 // readings older than the window
	Failed         uint64 // readings no owning shard accepted
	Reroutes       uint64 // readings routed past a down owner
	Frames         uint64 // READINGS frames sent
	Merges         uint64 // estimate merges served
	MergesDegraded uint64 // merges with ≥1 shard missing
	MergesCompact  uint64 // merges served by the compact iterative path
	MergeFallbacks uint64 // compact merges that fell back to full
	MergeRounds    uint64 // compact-merge rounds driven, total
	MergeBytes     uint64 // compact-merge point payload bytes, both directions
	MergeFullBytes uint64 // full-path window-snapshot payload bytes received
	Assigns        uint64 // ASSIGN epochs acknowledged
	HandoffSensors uint64 // sensors restored via handoff
	HandoffPoints  uint64 // points moved via handoff
	Flaps          uint64 // up→down transitions observed
	ShardsUp       int
	ShardsTotal    int
	Sensors        int // distinct sensors known: routed, or found on a shard at startup
}

// Coordinator is the cluster front door: it owns the shard map, routes
// readings to owning shards, probes shard health,
// resynchronizes rejoining shards (ASSIGN + window copy), and serves
// the merged outlier view. All methods are safe for concurrent use.
type Coordinator struct {
	cfg    Config
	client *ctlClient

	// member is held for writing by a membership change (AddShard,
	// RemoveShard) and for reading by a probe's resync: changes run one
	// at a time, and no resync overlaps one.
	member sync.RWMutex

	mu     sync.Mutex
	smap   *ShardMap
	shards map[string]*shardState
	latest map[core.NodeID]time.Duration // newest timestamp per known sensor: the shards' staleness gate
	closed bool
	// lastOutliers is the last answer a query served: the full path ranks
	// its union from it, as a detector ranks from its previous estimate.
	lastOutliers []core.Point

	// traceIDs mints the trace ID of every query and ingest batch; IDs
	// never repeat within this process, so a compact merge uses its
	// query's trace as its merge-session ID (see merge.go).
	traceIDs *traceIDGen

	obs      *coordObs     // metrics registry, counters and latency histograms, built in New
	traceLog *obs.TraceLog // span flight recorder behind /debug/traces and /debug/merges

	ctx        context.Context
	cancel     context.CancelFunc
	healthDone chan struct{}
}

// New validates cfg, learns which sensors the shards hold, and starts the
// health loop, which pushes the shard map.
func New(cfg Config) (*Coordinator, error) { return start(cfg, nil) }

// start is New with the health loop's tick supplied: nil ticks every
// HealthInterval; a test passes its own and runs rounds (probeRound).
func start(cfg Config, tick <-chan time.Time) (*Coordinator, error) {
	cfg.applyDefaults()
	probe := cfg.Detector
	probe.Node = 1
	if _, err := core.NewDetector(probe); err != nil {
		return nil, err
	}
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard is required")
	}
	smap := NewShardMap(cfg.Shards)
	shards := make(map[string]*shardState, smap.Len())
	for _, addr := range smap.Shards() {
		if _, err := net.ResolveTCPAddr("tcp", addr); err != nil {
			return nil, fmt.Errorf("cluster: resolve shard %q: %w", addr, err)
		}
		// Optimistic birth: route immediately; the health loop demotes
		// unreachable shards within HealthMisses probes.
		shards[addr] = &shardState{addr: addr, up: true}
	}
	client := newCtlClient()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		client:     client,
		smap:       smap,
		shards:     shards,
		latest:     make(map[core.NodeID]time.Duration),
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
	// Install the RPC timing hook before the first exchange, so the field
	// is never written concurrently with a read.
	client.onRTT = c.obs.rpcObserve
	c.discoverSensors()
	go c.healthLoop(tick)
	return c, nil
}

// Traces returns the coordinator's span flight recorder — the ring
// /debug/traces serves.
func (c *Coordinator) Traces() *obs.TraceLog { return c.traceLog }

// Close stops the health loop and closes every control connection.
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
	MergeSessions int       `json:"merge_sessions"` // control connections holding a merge session, as the shard last reported
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
	up, total, sensors := 0, len(c.shards), len(c.latest)
	for _, st := range c.shards {
		if st.up {
			up++
		}
	}
	c.mu.Unlock()
	return Stats{
		Routed:         c.obs.routed.Value(),
		Rejected:       c.obs.rejected.Value(),
		Stale:          c.obs.stale.Value(),
		Failed:         c.obs.failed.Value(),
		Reroutes:       c.obs.reroutes.Value(),
		Frames:         c.obs.frames.Value(),
		Merges:         c.obs.merges.Value(),
		MergesDegraded: c.obs.mergesDegraded.Value(),
		MergesCompact:  c.obs.mergesCompact.Value(),
		MergeFallbacks: c.obs.mergeFallbacks.Value(),
		MergeRounds:    c.obs.mergeRounds.Value(),
		MergeBytes:     c.obs.mergeBytes.Value(),
		MergeFullBytes: c.obs.mergeFullBytes.Value(),
		Assigns:        c.obs.assigns.Value(),
		HandoffSensors: c.obs.handoffSen.Value(),
		HandoffPoints:  c.obs.handoffPts.Value(),
		Flaps:          c.obs.flaps.Value(),
		ShardsUp:       up,
		ShardsTotal:    total,
		Sensors:        sensors,
	}
}

// ctlCtx bounds one background shard exchange (routing, resync, window
// copy) by QueryTimeout, ending early when the coordinator closes.
func (c *Coordinator) ctlCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(c.ctx, c.cfg.QueryTimeout)
}

// traceHex renders a trace ID the way every JSON surface does — 16 hex
// digits — so log lines grep against /debug/traces.
func traceHex(id uint64) string { return fmt.Sprintf("%016x", id) }
