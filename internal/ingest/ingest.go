// Package ingest is the streaming front door of the system: it accepts
// live observations, validates and routes them by sensor ID into a
// managed fleet of peer.Peers, and serves the resulting outlier estimates
// — the daemon engine behind cmd/innetd. Where internal/dataset replays
// pre-generated streams and internal/protocol drives the discrete-event
// simulator, this package ingests data that arrives from outside the
// process, at whatever rate and order the outside chooses.
//
// # Data path
//
// A Reading (sensor ID, timestamp, feature vector) enters through
// Service.Ingest — called by the HTTP batch endpoint ([Service.Handler])
// and the UDP line-protocol listener ([Service.ServeUDP]) — and flows:
//
//	Ingest → validate → per-sensor bounded queue → drain posted to the
//	         sensor's peer (one ranking pass per drained burst, then the
//	         WAL append) → broadcast on the in-memory mesh → neighbors
//	         converge
//
// Each sensor owns one queue and one goroutine: its peer's. Ingest posts
// a drain to the peer's mailbox (at most one outstanding per sensor); the
// peer runs it in turn with its neighbors' packets, taking everything that
// has accumulated as a single batch-observe event, so a sensor that falls
// behind catches up with one ranking pass instead of one per queued
// reading. Flush is the mesh's quiescence wait.
//
// # Backpressure and drop policy
//
// Queues are bounded (Config.QueueDepth). When a producer finds a queue
// full, the oldest queued reading is dropped to make room — latest wins.
// The rationale: under a sliding window the newest data is the data that
// will survive longest, and the detector tolerates gaps by design (the
// paper's loss model), so shedding the stalest backlog degrades answers
// the least. Drops are counted per service (Stats.Dropped) and surfaced
// through /metrics; ingestion itself never blocks on a slow detector.
//
// # Timestamps
//
// Time is data time, not wall time: a sensor's clock advances to the
// newest timestamp it has ingested, and window eviction follows that
// clock. Readings may arrive out of order within the window — points
// carry their own birth timestamps, so eviction order is unaffected.
// A reading older than (newest seen for that sensor − Window) would be
// evicted by the very next advance; it is rejected up front as stale and
// counted in Stats.Stale.
//
// # Join and leave
//
// Sensors attach dynamically: Join builds a peer, attaches it to the
// mesh, links it to the neighbors chosen by Config.Topology (default:
// every existing sensor, a clique) and delivers link-up events on both
// ends. Unknown sensor IDs auto-join on first contact when
// Config.AutoJoin is set, otherwise they are rejected and counted.
// Leave detaches the peer — remaining sensors receive link-down events,
// and the departed sensor's points age out of their windows as §5.3 of
// the paper prescribes — then reaps its goroutine. Close does this for
// the whole fleet at once via context cancellation.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
	"innet/internal/peer"
	"innet/internal/store"
)

// Validation errors returned by Service.Ingest (and surfaced per reading
// by the HTTP endpoint).
var (
	ErrClosed        = errors.New("ingest: service closed")
	ErrUnknownSensor = errors.New("ingest: unknown sensor (auto-join disabled)")
	ErrStale         = errors.New("ingest: reading older than the sliding window")
	ErrBadReading    = errors.New("ingest: malformed reading")
	ErrAlreadyJoined = errors.New("ingest: sensor already joined")
	ErrFleetFull     = errors.New("ingest: sensor limit reached")
)

// Reading is one observation as it arrives from the outside world. Its
// point identity is (Sensor, SeqOf(At)): a function of the reading, so
// every copy of it — a retry, a replica, a replay — names the same point.
type Reading struct {
	Sensor core.NodeID
	At     time.Duration // data-time timestamp (offset from stream epoch)
	Values []float64     // feature vector, e.g. temperature [, x, y]

	// Trace, when nonzero, is the distributed trace ID the reading
	// arrived under (a coordinator-stamped READINGS frame); the spans the
	// reading's queue wait and batch observe emit carry it. Direct
	// HTTP/UDP ingestion leaves it zero.
	Trace uint64
}

// SeqOf is the sequence number of a live point born at data time at: at
// in milliseconds, the front doors' at_ms unit, so two readings a door
// can tell apart never share an ID. It wraps mod 2^32 (every 49.7 days of
// data time); see DESIGN.md § "Identity and replication".
func SeqOf(at time.Duration) uint32 { return uint32(at / time.Millisecond) }

// Validate checks the reading's shape (ID, timestamp, feature vector)
// without consulting any service state. The cluster coordinator applies
// the same gate before routing, so a reading rejected here is rejected
// identically by every front door.
func (r Reading) Validate() error {
	switch {
	case r.Sensor == 0:
		return fmt.Errorf("%w: sensor id 0 is reserved", ErrBadReading)
	case r.At < 0:
		return fmt.Errorf("%w: negative timestamp %v", ErrBadReading, r.At)
	case len(r.Values) == 0:
		return fmt.Errorf("%w: empty feature vector", ErrBadReading)
	case len(r.Values) > 255:
		return fmt.Errorf("%w: %d features exceeds the wire format's 255", ErrBadReading, len(r.Values))
	}
	for _, v := range r.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite feature %v", ErrBadReading, v)
		}
	}
	return nil
}

// Config parameterizes a Service.
type Config struct {
	// Detector is the per-sensor detector configuration; Node is
	// overwritten with each sensor's ID. Ranker and N are required.
	Detector core.Config

	// QueueDepth bounds each sensor's ingest queue; when full, the
	// oldest queued reading is dropped (latest wins). Default 256.
	QueueDepth int

	// AutoJoin makes readings for unknown sensor IDs attach the sensor
	// on first contact instead of being rejected.
	AutoJoin bool

	// MaxSensors caps the fleet size; Join — including auto-join —
	// beyond it returns ErrFleetFull. The cap is what stands between
	// unauthenticated input and unbounded goroutines (each sensor costs
	// one goroutine, a detector, and O(fleet) mesh links under the
	// default clique topology). Default 1024.
	MaxSensors int

	// Topology picks which existing sensors a joining sensor links to.
	// Nil links to every existing sensor (a clique), which makes every
	// estimate global. innetd keeps the default; embedders (see
	// examples/livenet) can shape multi-hop meshes.
	Topology func(joining core.NodeID, existing []core.NodeID) []core.NodeID

	// Store, when set, makes the fleet's windows durable: every point a
	// detector adds is appended to it (in detector order), and Warm
	// replays the persisted state so a restarted daemon serves exact
	// answers over the data it held when it went down. Nil — the default — keeps today's purely in-memory
	// behavior. The Service uses the store but does not own it; the
	// caller closes it after Close.
	Store store.Store

	// CompactEvery bounds WAL growth: after this many appended records
	// the service compacts the store down to the current window union
	// in the background. Default 8192.
	CompactEvery int

	// SlowQuery, when positive, logs every GET /v1/outliers that takes
	// at least this long through Logger. Zero disables the slow-query
	// log.
	SlowQuery time.Duration

	// Logger receives structured service events (slow queries, shard
	// control actions). Nil discards.
	Logger *slog.Logger

	// TraceSink, when set, receives every recorded span as one JSON line
	// (the -trace-file flag); the in-memory /debug/traces ring records
	// them regardless. Note the sink takes span recording off the
	// zero-allocation path — it is an opt-in debugging aid.
	TraceSink io.Writer

	// SpanCapacity bounds the /debug/traces flight-recorder ring.
	// Default 2048.
	SpanCapacity int
}

func (c *Config) applyDefaults() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.MaxSensors == 0 {
		c.MaxSensors = 1024
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 8192
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SpanCapacity < 1 {
		c.SpanCapacity = 2048
	}
}

// Stats is a snapshot of the service counters.
type Stats struct {
	Accepted  uint64 // readings admitted to a queue
	Observed  uint64 // readings fed into a detector
	Repeated  uint64 // observed readings whose point the detector already held (first copy wins)
	Batches   uint64 // batch-observe events (ranking passes)
	Dropped   uint64 // readings shed by the latest-wins policy
	Stale     uint64 // readings rejected as older than the window
	Malformed uint64 // payloads/lines/readings that failed to parse
	Unknown   uint64 // readings rejected for unknown sensor IDs
	Joins     uint64 // sensors attached (initial + dynamic)
	Leaves    uint64 // sensors detached
	Sensors   int    // currently attached sensors
	Pending   int64  // accepted but not yet observed (0 after Flush)
}

// queued is one admitted observation plus its enqueue instant, so the
// drain can observe how long the reading waited in the queue, and the
// trace ID it arrived under (0 for untraced front doors).
type queued struct {
	obs   core.Observation
	enq   time.Time
	trace uint64
}

// sensor is one attached sensor: its peer, its bounded queue, and the
// drain event that moves readings from the one to the other.
type sensor struct {
	id      core.NodeID
	peer    *peer.Peer
	runDone chan struct{} // closed when the peer's Run has returned

	drain func(*core.Detector) *core.Outbound // Service.drain bound to this sensor, built once

	mu     sync.Mutex
	latest time.Duration // newest ingested timestamp: the staleness gate and the drain's clock
	drops  uint64        // readings this sensor shed by latest-wins
	queue  []queued      // oldest first, at most QueueDepth
	posted bool          // a drain sits in the peer's mailbox, on the mesh counter

	// The drain's own buffers, touched only on the peer goroutine: taken
	// is swapped with queue under mu, batch is what the detector observes.
	taken []queued
	batch []core.Observation
}

// Service owns the fleet: the mesh, one sensor record per attached ID,
// and the shared counters. All methods are safe for concurrent use.
type Service struct {
	cfg    Config
	mesh   *peer.Mesh
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.RWMutex // guards sensors and closed; Ingest enqueues under RLock
	sensors map[core.NodeID]*sensor
	closed  bool

	pending atomic.Int64 // accepted but not yet observed: a gauge, nothing waits on it

	// Durability (wal is nil and inert when cfg.Store is nil).
	wal      *store.Policy
	replayed atomic.Uint64 // records restored by Warm

	obs    *serviceObs   // metrics registry, counters and latency histograms, built in New
	traces *obs.TraceLog // /debug/traces flight-recorder ring of spans
}

// New validates cfg and returns a running (but empty) service. Sensors
// attach via Join or, with cfg.AutoJoin, on first contact.
func New(cfg Config) (*Service, error) {
	cfg.applyDefaults()
	probe := cfg.Detector
	probe.Node = 1
	if _, err := core.NewDetector(probe); err != nil {
		return nil, err
	}
	if cfg.QueueDepth < 1 || cfg.MaxSensors < 1 {
		return nil, errors.New("ingest: QueueDepth and MaxSensors must be positive")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		mesh:    peer.NewMesh(),
		ctx:     ctx,
		cancel:  cancel,
		sensors: make(map[core.NodeID]*sensor),
	}
	s.obs = newServiceObs(s)
	s.traces = obs.NewTraceLog(cfg.SpanCapacity)
	if cfg.TraceSink != nil {
		s.traces.SetSink(cfg.TraceSink)
	}
	s.wal = store.NewPolicy(cfg.Store, cfg.CompactEvery, s.traces, s.obs.walTiming, s.durableState)
	return s, nil
}

// Join attaches a sensor: a peer on the mesh, linked to the sensors the
// topology selects, with its queue ready and its goroutine running.
// Joining an attached sensor or a closed service is an error.
func (s *Service) Join(id core.NodeID) error {
	if id == 0 {
		return fmt.Errorf("%w: sensor id 0 is reserved", ErrBadReading)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if _, dup := s.sensors[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrAlreadyJoined, id)
	}
	if len(s.sensors) >= s.cfg.MaxSensors {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d sensors attached", ErrFleetFull, len(s.sensors))
	}
	existing := make([]core.NodeID, 0, len(s.sensors))
	for other := range s.sensors {
		existing = append(existing, other)
	}
	sort.Slice(existing, func(i, j int) bool { return existing[i] < existing[j] })

	tr, err := s.mesh.Attach(id)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	det := s.cfg.Detector
	det.Node = id
	p, err := peer.New(peer.Config{Detector: det, Transport: tr})
	if err != nil {
		s.mesh.Detach(id)
		s.mu.Unlock()
		return err
	}
	sn := &sensor{
		id:      id,
		peer:    p,
		runDone: make(chan struct{}),
	}
	sn.drain = func(d *core.Detector) *core.Outbound { return s.drain(sn, d) }
	s.sensors[id] = sn
	neighbors := existing
	if s.cfg.Topology != nil {
		neighbors = s.cfg.Topology(id, existing)
	}
	s.mu.Unlock()

	go func() {
		defer close(sn.runDone)
		_ = p.Run(s.ctx)
	}()

	for _, nb := range neighbors {
		s.mu.RLock()
		other, ok := s.sensors[nb]
		s.mu.RUnlock()
		if !ok {
			continue // left while we were joining; fine
		}
		if err := s.mesh.Connect(id, nb); err != nil {
			continue
		}
		if err := p.AddNeighbor(s.ctx, nb); err != nil {
			return err
		}
		// A neighbour whose peer stopped between the lookup and the
		// link-up left while we were joining, same as the lookup miss.
		if err := other.peer.AddNeighbor(s.ctx, id); err != nil && !errors.Is(err, peer.ErrStopped) {
			return err
		}
	}
	s.obs.joins.Inc()
	return nil
}

// Leave detaches a sensor: its peer finishes what is already in its
// mailbox, its goroutine is reaped, whatever is still queued is shed, and
// every remaining neighbor receives a link-down event. Points the
// fleet already received from the departed sensor stay held and age out
// of the sliding windows (§5.3); they are not eagerly purged.
func (s *Service) Leave(id core.NodeID) error {
	s.mu.Lock()
	sn, ok := s.sensors[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("ingest: sensor %d not joined", id)
	}
	delete(s.sensors, id)
	s.mu.Unlock()
	// From here no new Ingest can reach sn: lookups go through the map,
	// and in-flight enqueues finished before the write lock was granted.

	neighbors := s.mesh.Neighbors(id)

	s.mesh.Detach(id) // closes the mailbox → Run empties it, then returns nil
	<-sn.runDone
	// A drain that a closing service stopped before it ran leaves its
	// readings queued; nobody will post another, so they are shed.
	sn.mu.Lock()
	left := len(sn.queue)
	sn.mu.Unlock()
	s.pending.Add(-int64(left))
	s.obs.dropped.Add(uint64(left))
	for _, nb := range neighbors {
		s.mu.RLock()
		other, ok := s.sensors[nb]
		s.mu.RUnlock()
		if ok {
			_ = other.peer.RemoveNeighbor(s.ctx, id)
		}
	}
	s.obs.leaves.Inc()
	return nil
}

// Ingest validates one reading and routes it to its sensor's queue,
// auto-joining unknown sensors when configured. It never blocks on a
// slow detector: a full queue sheds its oldest reading instead.
func (s *Service) Ingest(r Reading) error {
	if err := r.Validate(); err != nil {
		s.obs.malformed.Inc()
		return err
	}
	for {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return ErrClosed
		}
		sn, ok := s.sensors[r.Sensor]
		if !ok {
			s.mu.RUnlock()
			if !s.cfg.AutoJoin {
				s.obs.unknown.Inc()
				return fmt.Errorf("%w: sensor %d", ErrUnknownSensor, r.Sensor)
			}
			// A concurrent Ingest may join the sensor first; losing
			// that race is success, so retry the lookup.
			if err := s.Join(r.Sensor); err != nil && !errors.Is(err, ErrAlreadyJoined) {
				return err
			}
			continue
		}
		err := s.enqueue(sn, r)
		s.mu.RUnlock()
		return err
	}
}

// enqueue admits the reading under the service read lock (which excludes
// Leave/Close). Under the sensor's lock it applies the staleness gate,
// sheds the oldest queued reading if the queue is full (latest wins),
// queues the reading and posts a drain unless one is already posted.
func (s *Service) enqueue(sn *sensor, r Reading) error {
	item := queued{
		obs:   core.Observation{Birth: r.At, Value: r.Values, Seq: SeqOf(r.At), Assigned: true},
		enq:   time.Now(),
		trace: r.Trace,
	}
	sn.mu.Lock()
	if w := s.cfg.Detector.Window; w > 0 && r.At < sn.latest-w {
		latest := sn.latest
		sn.mu.Unlock()
		s.obs.stale.Inc()
		return fmt.Errorf("%w: %v is older than %v − %v", ErrStale, r.At, latest, w)
	}
	sn.latest = max(sn.latest, r.At)
	if len(sn.queue) == s.cfg.QueueDepth {
		sn.queue = append(sn.queue[:0], sn.queue[1:]...)
		sn.drops++
		s.obs.dropped.Inc()
	} else {
		s.pending.Add(1)
	}
	sn.queue = append(sn.queue, item)
	if !sn.posted {
		sn.posted = sn.peer.Post(sn.drain)
	}
	sn.mu.Unlock()
	// The drain that will take the reading is on the mesh counter before
	// the reading counts as accepted, so no Flush begun once the new
	// Accepted is readable returns before the reading is observed or shed
	// — the barrier the exactness checkpoints and the cluster snapshot
	// protocol stand on.
	s.obs.accepted.Inc()
	return nil
}

// drain is the event Ingest posts to a sensor's peer: on the goroutine
// that owns the detector it swaps the whole queue out, feeds it as one
// batch-observe event, appends what the detector added to the store, and
// returns the reaction for the peer to broadcast.
func (s *Service) drain(sn *sensor, d *core.Detector) *core.Outbound {
	sn.mu.Lock()
	sn.posted = false
	sn.taken, sn.queue = sn.queue, sn.taken[:0]
	now := sn.latest
	sn.mu.Unlock()
	drained := time.Now()
	taken, batch := sn.taken, sn.batch[:0]
	var trace uint64
	for _, q := range taken {
		s.obs.queueLat.Observe(drained.Sub(q.enq).Seconds())
		batch = append(batch, q.obs)
		if trace == 0 {
			trace = q.trace
		}
	}
	// One enqueue→drain span per batch, carrying the first traced
	// reading's ID: per-reading spans would flood the ring under
	// burst, and the batch is the unit the detector observes anyway.
	// The batch is never empty: a drain is posted with a reading, and
	// while the peer runs only a drain takes readings out of the queue.
	first := taken[0].enq
	s.traces.Record(obs.Span{
		Trace:  trace,
		Op:     obs.OpEnqueue,
		Points: int32(len(batch)),
		Start:  first,
		Dur:    drained.Sub(first),
	})
	added, out := d.StepObserveBatch(now, batch)
	s.persist(trace, added)
	s.obs.observeDur.Observe(time.Since(drained).Seconds())
	s.traces.Record(obs.Span{
		Trace:  trace,
		Op:     obs.OpObserve,
		Points: int32(len(batch)),
		Start:  drained,
		Dur:    time.Since(drained),
	})
	s.pending.Add(-int64(len(batch)))
	s.obs.observed.Add(uint64(len(batch)))
	s.obs.repeated.Add(uint64(len(batch) - len(added)))
	s.obs.batches.Inc()
	// Keep no feature vector alive until the next drain.
	clear(taken)
	clear(batch)
	sn.batch = batch
	return out
}

// persist appends the points one observed batch added to the store, if
// there is one; the policy counts the append toward the next background
// compaction.
func (s *Service) persist(trace uint64, added []core.Point) {
	if s.wal == nil || len(added) == 0 {
		return
	}
	recs := make([]store.Record, len(added))
	for i, p := range added {
		recs[i] = store.RecordOf(p)
	}
	_ = s.wal.AppendReadings(s.ctx, trace, recs)
}

// CompactStore snapshots the current window union into the store and
// truncates its WAL. It is called automatically as
// the WAL grows; callers (Warm, tests) may also invoke it directly.
// Records persisted while the snapshot is taken are folded in by the
// store's policy, so none is lost to the truncation.
func (s *Service) CompactStore(ctx context.Context) error {
	return s.wal.Compact(ctx)
}

// durableState is the fleet's side of a compaction: the window union.
func (s *Service) durableState(ctx context.Context) (store.State, error) {
	pts, err := s.Snapshot(ctx)
	if err != nil {
		return store.State{}, err
	}
	recs := make([]store.Record, len(pts))
	for i, p := range pts {
		recs[i] = store.RecordOf(p)
	}
	return store.State{Records: recs}, nil
}

// Warm replays the store's persisted state into a freshly started fleet:
// sensors are joined, surviving window records are re-ingested through
// the front door (which derives each point's identity from its birth and
// restores each sensor's staleness gate from the births it sees), and
// the store is compacted down to what actually survived. It returns the
// number of records restored. Call it once, after New and before serving
// traffic; with no store (or an empty one) it is a no-op.
func (s *Service) Warm(ctx context.Context) (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	st, err := s.cfg.Store.Load()
	if err != nil {
		return 0, fmt.Errorf("ingest: warm: %w", err)
	}
	// Records older than their sensor's window have already been evicted
	// everywhere; re-ingesting them would only bounce off the staleness
	// gate (polluting the stale counter) or, worse, resurrect data the
	// pre-crash fleet no longer held.
	cutoff := make(map[core.NodeID]time.Duration)
	if w := s.cfg.Detector.Window; w > 0 {
		for _, r := range st.Records {
			if c, ok := cutoff[r.Sensor]; !ok || r.Birth-w > c {
				cutoff[r.Sensor] = r.Birth - w
			}
		}
	}
	replay := make([]Reading, 0, len(st.Records))
	for _, r := range st.Records {
		if c, ok := cutoff[r.Sensor]; ok && r.Birth < c {
			continue
		}
		if err := s.ensureJoined(r.Sensor); err != nil {
			return 0, fmt.Errorf("ingest: warm: %w", err)
		}
		replay = append(replay, Reading{Sensor: r.Sensor, At: r.Birth, Values: r.Values})
	}
	repeatedBefore := s.obs.repeated.Value()
	restored, err := s.Admit(ctx, replay)
	if err != nil {
		return restored, fmt.Errorf("ingest: warm: %w", err)
	}
	// A directory written when sequence numbers were minted can hold two
	// points of one sensor at one data time; their derived IDs coincide,
	// so the first copy stands for both.
	if n := s.obs.repeated.Value() - repeatedBefore; n > 0 {
		s.cfg.Logger.Warn("warm replay folded records that share a sensor and data time", "records", n)
	}
	if restored != len(replay) {
		return restored, fmt.Errorf("ingest: warm: the front door rejected %d of %d surviving records", len(replay)-restored, len(replay))
	}
	// Replay re-appended every restored record; compacting now collapses
	// the duplication and bounds WAL growth across repeated restarts.
	if err := s.CompactStore(ctx); err != nil {
		return restored, fmt.Errorf("ingest: warm: %w", err)
	}
	s.replayed.Store(uint64(restored))
	return restored, nil
}

// ensureJoined attaches the sensor if it is not already attached.
func (s *Service) ensureJoined(id core.NodeID) error {
	s.mu.RLock()
	_, ok := s.sensors[id]
	s.mu.RUnlock()
	if ok {
		return nil
	}
	if err := s.Join(id); err != nil && !errors.Is(err, ErrAlreadyJoined) {
		return err
	}
	return nil
}

// StoreMetrics reports the durability counters: the store's own plus the
// service-side append-failure and replay counts. ok is false when the
// service runs without a store.
func (s *Service) StoreMetrics() (m store.Metrics, walErrors, replayed uint64, ok bool) {
	if s.cfg.Store == nil {
		return store.Metrics{}, 0, 0, false
	}
	return s.cfg.Store.Metrics(), s.wal.Errors(), s.replayed.Load(), true
}

// Admit is Ingest for a window that must arrive whole — restored from the
// store or handed over by another shard. A live burst may trip latest-wins
// shedding; this may not, so it lets the fleet settle every QueueDepth/2
// readings and at the end. It returns how many passed the front door (the
// service counters say why the rest did not), and an error only when the
// fleet could not settle.
func (s *Service) Admit(ctx context.Context, readings []Reading) (int, error) {
	admitted, every := 0, max(1, s.cfg.QueueDepth/2)
	for i, r := range readings {
		if s.Ingest(r) == nil {
			admitted++
		}
		if (i+1)%every == 0 || i+1 == len(readings) {
			if err := s.Flush(ctx); err != nil {
				return admitted, err
			}
		}
	}
	return admitted, nil
}

// Flush blocks until every reading ingested so far has been observed by
// its detector and the mesh is quiescent — i.e. the fleet's estimates
// have converged on the data ingested before the call. A reading's drain
// is on the mesh counter before Ingest returns, so the mesh's wait is the
// whole barrier; a closing fleet empties the counter, which wakes it.
func (s *Service) Flush(ctx context.Context) error {
	err := s.mesh.WaitQuiescent(ctx)
	if s.ctx.Err() != nil {
		return ErrClosed
	}
	return err
}

// Estimate returns the current outlier estimate as seen by the given
// sensor, or an error if it is not attached.
func (s *Service) Estimate(id core.NodeID) ([]core.Point, error) {
	s.mu.RLock()
	sn, ok := s.sensors[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ingest: sensor %d not joined", id)
	}
	return sn.peer.Estimate(), nil
}

// Snapshot returns the union of every attached sensor's sliding window,
// deduplicated by point ID (the lowest-hop copy) and in ID order: one
// merge of the sensors' ID-ordered holdings. After Flush it is exactly the
// data the fleet's estimates are computed over; the cluster shard server
// serves it to the coordinator, whose merge over shard snapshots then
// equals the centralized answer over the union of all windows.
func (s *Service) Snapshot(ctx context.Context) ([]core.Point, error) {
	s.mu.RLock()
	fleet := make([]*sensor, 0, len(s.sensors))
	for _, sn := range s.sensors {
		fleet = append(fleet, sn)
	}
	s.mu.RUnlock()
	holdings := make([][]core.Point, 0, len(fleet))
	for _, sn := range fleet {
		held, err := sn.peer.Holdings(ctx)
		if errors.Is(err, peer.ErrStopped) && s.ctx.Err() == nil {
			continue // left after the fleet was listed; its points age out elsewhere
		}
		if err != nil {
			return nil, err
		}
		holdings = append(holdings, held.Points())
	}
	return core.UnionPoints(holdings...), nil
}

// HoldingsOf returns one attached sensor's sliding window (its own
// points plus everything it has received), sorted. Unlike Snapshot it
// costs one event-loop round trip instead of one per sensor, which is
// what a shard wants when it answers an ESTIMATE for a single sensor
// (the read half of the cluster's window copy).
func (s *Service) HoldingsOf(ctx context.Context, id core.NodeID) ([]core.Point, error) {
	s.mu.RLock()
	sn, ok := s.sensors[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ingest: sensor %d not joined", id)
	}
	held, err := sn.peer.Holdings(ctx)
	if err != nil {
		return nil, err
	}
	return held.Points(), nil
}

// Traces returns the service's span flight recorder — the ring the
// daemon serves at /debug/traces. The shard-control server records its
// session and exchange spans here too, so one endpoint shows a shard's
// whole view of a distributed query.
func (s *Service) Traces() *obs.TraceLog { return s.traces }

// DetectorConfig returns the per-sensor detector configuration template
// (Node is assigned per sensor at join). The cluster shard server uses
// it to answer coordinator merge rounds with exactly the ranker and N
// the fleet ranks with.
func (s *Service) DetectorConfig() core.Config { return s.cfg.Detector }

// SensorStat is one attached sensor's queue state.
type SensorStat struct {
	ID    core.NodeID
	Queue int    // readings currently queued
	Drops uint64 // readings shed by the latest-wins policy
}

// SensorStats snapshots per-sensor queue depth and drop counters, sorted
// by sensor ID. The HTTP API surfaces these on /v1/sensors and /metrics.
func (s *Service) SensorStats() []SensorStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SensorStat, 0, len(s.sensors))
	for id, sn := range s.sensors {
		sn.mu.Lock()
		out = append(out, SensorStat{ID: id, Queue: len(sn.queue), Drops: sn.drops})
		sn.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Sensors returns the attached sensor IDs, sorted.
func (s *Service) Sensors() []core.NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]core.NodeID, 0, len(s.sensors))
	for id := range s.sensors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	n := len(s.sensors)
	s.mu.RUnlock()
	return Stats{
		Accepted:  s.obs.accepted.Value(),
		Observed:  s.obs.observed.Value(),
		Repeated:  s.obs.repeated.Value(),
		Batches:   s.obs.batches.Value(),
		Dropped:   s.obs.dropped.Value(),
		Stale:     s.obs.stale.Value(),
		Malformed: s.obs.malformed.Value(),
		Unknown:   s.obs.unknown.Value(),
		Joins:     s.obs.joins.Value(),
		Leaves:    s.obs.leaves.Value(),
		Sensors:   n,
		Pending:   s.pending.Load(),
	}
}

// Close stops the fleet: ingestion is refused, every peer goroutine exits
// via context cancellation, and Close returns once all of them have. It
// is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	fleet := make([]*sensor, 0, len(s.sensors))
	for _, sn := range s.sensors {
		fleet = append(fleet, sn)
	}
	s.mu.Unlock()

	s.cancel()
	for _, sn := range fleet {
		<-sn.runDone
	}
	return nil
}
