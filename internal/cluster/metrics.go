package cluster

import (
	"sync/atomic"
	"time"

	"innet/internal/obs"
	"innet/internal/protocol"
)

// coordObs is the coordinator's metrics surface: one obs.Registry whose
// counter and gauge series read the coordinator's existing atomics at
// scrape time (keeping the routing hot path untouched), plus the latency
// histograms the query, RPC, and durability paths observe into.
// Registration order reproduces the series order of the retired
// hand-rolled /metrics writer so dashboards and the smoke scripts' greps
// keep working.
type coordObs struct {
	reg *obs.Registry

	queryLat *obs.HistogramVec // merge-query service time, by served mode
	rpcLat   *obs.HistogramVec // shard-control exchange round trip, by frame kind

	// walTiming feeds the identity-WAL duration histograms; nil without
	// a store, like the WAL counters.
	walTiming func(op string, d time.Duration)
}

func newCoordObs(c *Coordinator) *coordObs {
	r := obs.NewRegistry()
	m := &coordObs{reg: r}

	counter := func(name, help string, v *atomic.Uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("innetcoord_readings_routed_total", "Readings accepted by at least one owning shard.", &c.routed)
	counter("innetcoord_readings_rejected_total", "Readings failing validation.", &c.rejected)
	counter("innetcoord_readings_stale_total", "Readings older than the sliding window.", &c.stale)
	counter("innetcoord_readings_failed_total", "Readings no owning shard accepted.", &c.failed)
	counter("innetcoord_readings_rerouted_total", "Readings routed past a down owner.", &c.reroutes)
	counter("innetcoord_readings_frames_total", "READINGS frames sent.", &c.frames)
	counter("innetcoord_merges_total", "Estimate merges served.", &c.merges)
	counter("innetcoord_merges_degraded_total", "Merges with at least one shard missing.", &c.mergesDegraded)
	counter("innetcoord_merges_compact_total", "Merges served by the compact iterative path.", &c.mergesCompact)
	counter("innetcoord_merge_fallbacks_total", "Compact merges that fell back to the full path.", &c.mergeFallbacks)
	counter("innetcoord_merge_rounds_total", "Compact-merge rounds driven.", &c.mergeRounds)
	counter("innetcoord_merge_bytes_total", "Compact-merge point payload bytes, both directions.", &c.mergeBytes)
	counter("innetcoord_merge_full_bytes_total", "Full-path window-snapshot payload bytes received.", &c.mergeFullBytes)
	r.GaugeFunc("innetcoord_recovered_sensors", "Sensors whose identity counters were recovered at startup.",
		func() float64 { return float64(c.recovered.Load()) })
	counter("innetcoord_assigns_total", "ASSIGN epochs acknowledged.", &c.assigns)
	counter("innetcoord_handoff_sensors_total", "Sensors restored via handoff.", &c.handoffSen)
	counter("innetcoord_handoff_points_total", "Points moved via handoff.", &c.handoffPts)
	counter("innetcoord_shard_flaps_total", "Up-to-down shard transitions observed.", &c.flaps)
	r.CounterFunc("innetcoord_truncated_frames_total", "Control datagrams dropped as kernel-truncated.",
		func() float64 { return float64(c.client.truncated.Load()) })
	r.GaugeFunc("innetcoord_shards_up", "Shards the health loop currently considers up.",
		func() float64 { return float64(c.Stats().ShardsUp) })
	r.GaugeFunc("innetcoord_shards", "Shards in the map.",
		func() float64 { return float64(c.Stats().ShardsTotal) })
	r.GaugeFunc("innetcoord_sensors", "Distinct sensors routed so far.",
		func() float64 { return float64(c.Stats().Sensors) })

	// Identity-recovery provenance: exactly one source label reads 1.
	// The rolling-restart e2e asserts source="store" after a restart
	// with a data dir, and the crash drills assert "shard-fan" without.
	r.LabeledGaugeFunc("innetcoord_identity_recovery_source",
		"Where startup recovery found the identity counters; exactly one source reads 1.",
		func(emit func(string, float64)) {
			got := c.IdentitySource()
			for _, src := range []string{"store", "shard-fan", "none"} {
				v := 0.0
				if got == src {
					v = 1
				}
				emit(obs.Label("source", src), v)
			}
		})

	if c.cfg.Store != nil {
		r.CounterFunc("innetcoord_wal_bytes_total", "Bytes appended to the identity WAL.",
			func() float64 { return float64(c.cfg.Store.Metrics().WALBytes) })
		r.CounterFunc("innetcoord_wal_records_total", "Records appended to the identity WAL.",
			func() float64 { return float64(c.cfg.Store.Metrics().WALRecords) })
		r.CounterFunc("innetcoord_wal_fsyncs_total", "Fsync calls issued by the identity store.",
			func() float64 { return float64(c.cfg.Store.Metrics().Fsyncs) })
		r.CounterFunc("innetcoord_wal_compactions_total", "Identity-store snapshot rewrites.",
			func() float64 { return float64(c.cfg.Store.Metrics().Compacts) })
		r.CounterFunc("innetcoord_snapshot_corrupt_total", "Snapshot files discarded as corrupt at load.",
			func() float64 { return float64(c.cfg.Store.Metrics().SnapCorrupt) })
		r.CounterFunc("innetcoord_wal_append_errors_total", "Failed identity-store appends (routing keeps going).",
			func() float64 { return float64(c.wal.Errors()) })
	}

	r.LabeledGaugeFunc("innetcoord_shard_up", "Per-shard up/down as seen by the health loop.",
		func(emit func(string, float64)) {
			for _, sh := range c.ShardInfos() {
				v := 0.0
				if sh.Up {
					v = 1
				}
				emit(obs.Label("shard", sh.Addr), v)
			}
		})

	b := obs.LatencyBuckets()
	m.queryLat = r.HistogramVec("innetcoord_query_latency_seconds",
		"Merged-estimate service time, labeled by the mode that served the answer.", "mode", b)
	m.rpcLat = r.HistogramVec("innetcoord_rpc_latency_seconds",
		"Shard-control exchange round trip (send to last response frame), by frame kind.", "op", b)
	if c.cfg.Store != nil {
		m.walTiming = r.StoreTiming("innetcoord", "Identity-WAL", "identity-store snapshot")
	}
	// Registered last so existing exposition order is undisturbed.
	obs.RegisterBuildInfo(r)
	return m
}

// rpcObserve is the ctlClient's onRTT hook: one observation per
// successful exchange, labeled by the request frame kind.
func (m *coordObs) rpcObserve(kind protocol.FrameKind, d time.Duration) {
	m.rpcLat.With(kind.MetricLabel()).Observe(d.Seconds())
}
