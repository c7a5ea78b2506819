package ingest

import (
	"strconv"
	"time"

	"innet/internal/obs"
	"innet/internal/store"
)

// serviceObs is the daemon's metrics surface: one obs.Registry, the
// counters the service increments (Stats reads the same ones), gauges
// read at scrape time, and the latency histograms the hot paths observe
// into directly. Registration order reproduces the series order of the
// retired hand-rolled /metrics writer so existing dashboards and the
// smoke scripts' greps keep working.
type serviceObs struct {
	reg *obs.Registry

	accepted, observed, repeated, batches, dropped *obs.Counter
	stale, malformed, unknown, joins, leaves       *obs.Counter

	queueLat   *obs.Histogram // enqueue → drain on the sensor's peer, per reading
	observeDur *obs.Histogram // one ObserveBatch ranking pass
	queryLat   *obs.Histogram // GET /v1/outliers service time

	// walTiming feeds the WAL duration histograms; nil without a
	// store, like the WAL counters.
	walTiming func(op string, d time.Duration)
}

func newServiceObs(s *Service) *serviceObs {
	r := obs.NewRegistry()
	m := &serviceObs{reg: r}

	m.accepted = r.Counter("innetd_readings_accepted_total", "Readings admitted to a sensor queue.")
	m.observed = r.Counter("innetd_readings_observed_total", "Readings fed into a detector.")
	m.repeated = r.Counter("innetd_readings_repeated_total", "Observed readings whose point the detector already held (first copy wins).")
	m.batches = r.Counter("innetd_observe_batches_total", "Batch-observe events (ranking passes).")
	m.dropped = r.Counter("innetd_readings_dropped_total", "Readings shed by the latest-wins policy, or past the window when drained.")
	m.stale = r.Counter("innetd_readings_stale_total", "Readings rejected as older than the sliding window.")
	m.malformed = r.Counter("innetd_readings_malformed_total", "Payloads, lines, or readings that failed to parse.")
	m.unknown = r.Counter("innetd_readings_unknown_sensor_total", "Readings rejected for unknown sensor IDs.")
	m.joins = r.Counter("innetd_sensor_joins_total", "Sensors attached (initial + dynamic).")
	m.leaves = r.Counter("innetd_sensor_leaves_total", "Sensors detached.")
	r.GaugeFunc("innetd_sensors", "Currently attached sensors.", func() float64 {
		s.mu.RLock()
		n := len(s.sensors)
		s.mu.RUnlock()
		return float64(n)
	})
	r.GaugeFunc("innetd_readings_pending", "Readings accepted but not yet observed.", func() float64 {
		return float64(s.pending.Load())
	})

	// Durability series, registered only when a store is attached so the
	// e2e suites can assert their presence (and absence) by flag.
	if s.cfg.Store != nil {
		walCounter := func(name, help string, read func(store.Metrics) uint64) {
			r.CounterFunc(name, help, func() float64 { return float64(read(s.cfg.Store.Metrics())) })
		}
		walCounter("innetd_wal_bytes_total", "Bytes appended to the WAL.", func(m store.Metrics) uint64 { return m.WALBytes })
		walCounter("innetd_wal_records_total", "Records appended to the WAL.", func(m store.Metrics) uint64 { return m.WALRecords })
		walCounter("innetd_wal_fsyncs_total", "Fsync calls issued by the store.", func(m store.Metrics) uint64 { return m.Fsyncs })
		walCounter("innetd_wal_compactions_total", "Snapshot rewrites.", func(m store.Metrics) uint64 { return m.Compacts })
		walCounter("innetd_wal_truncated_bytes_total", "Torn-tail bytes discarded at open.", func(m store.Metrics) uint64 { return m.Truncated })
		walCounter("innetd_snapshot_corrupt_total", "Snapshot files discarded as corrupt at load.", func(m store.Metrics) uint64 { return m.SnapCorrupt })
		r.CounterFunc("innetd_wal_append_errors_total", "Failed store appends (the fleet keeps serving).",
			func() float64 { return float64(s.wal.Errors()) })
		r.GaugeFunc("innetd_replayed_records", "Records restored by the last warm start.",
			func() float64 { return float64(s.replayed.Load()) })
	}

	// Per-sensor queue state: depth now, drops since attach. The drop
	// total above says whether shedding happened; these say where.
	r.LabeledGaugeFunc("innetd_sensor_queue_depth", "Readings currently queued, per sensor.",
		func(emit func(string, float64)) {
			for _, sn := range s.SensorStats() {
				emit(obs.Label("sensor", strconv.Itoa(int(sn.ID))), float64(sn.Queue))
			}
		})
	r.LabeledCounterFunc("innetd_sensor_queue_drops_total", "Readings shed by the latest-wins policy, per sensor.",
		func(emit func(string, float64)) {
			for _, sn := range s.SensorStats() {
				emit(obs.Label("sensor", strconv.Itoa(int(sn.ID))), float64(sn.Drops))
			}
		})

	b := obs.LatencyBuckets()
	m.queueLat = r.Histogram("innetd_queue_latency_seconds",
		"Time a reading waits between enqueue and its sensor's peer draining it.", b)
	m.observeDur = r.Histogram("innetd_observe_batch_seconds",
		"Duration of one batch-observe ranking pass.", b)
	m.queryLat = r.Histogram("innetd_query_latency_seconds",
		"Service time of GET /v1/outliers.", b)
	if s.cfg.Store != nil {
		m.walTiming = storeTiming(r, b)
	}
	// Registered last so existing exposition order is undisturbed.
	obs.RegisterBuildInfo(r)
	return m
}

// storeTiming registers the WAL duration histograms and returns the
// observer a store's SetTiming hook takes: op is "append", "fsync" or
// "compact".
func storeTiming(r *obs.Registry, b []float64) func(op string, d time.Duration) {
	appendDur := r.Histogram("innetd_wal_append_seconds", "WAL write+flush duration per append batch.", b)
	fsyncDur := r.Histogram("innetd_wal_fsync_seconds", "Duration of one fsync (WAL, snapshot, or directory).", b)
	compactDur := r.Histogram("innetd_wal_compact_seconds", "Duration of one whole snapshot rewrite.", b)
	return func(op string, d time.Duration) {
		switch op {
		case "append":
			appendDur.Observe(d.Seconds())
		case "fsync":
			fsyncDur.Observe(d.Seconds())
		case "compact":
			compactDur.Observe(d.Seconds())
		}
	}
}
