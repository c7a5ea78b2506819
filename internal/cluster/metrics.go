package cluster

import (
	"time"

	"innet/internal/obs"
	"innet/internal/protocol"
)

// coordObs is the coordinator's metrics surface: one obs.Registry, the
// counters the coordinator increments (Stats reads the same ones), gauges
// read at scrape time, and the latency histograms the query and RPC
// paths observe into. Registration order reproduces the series order of
// the retired hand-rolled /metrics writer so dashboards and the smoke
// scripts' greps keep working (TestCoordinatorMetricsGolden).
type coordObs struct {
	reg *obs.Registry

	routed, rejected, stale, failed, reroutes, frames     *obs.Counter
	merges, mergesDegraded, mergesCompact, mergeFallbacks *obs.Counter
	mergeRounds, mergeBytes, mergeFullBytes, assigns      *obs.Counter
	handoffSen, handoffPts, flaps                         *obs.Counter

	queryLat *obs.HistogramVec // merge-query service time, by served mode
	rpcLat   *obs.HistogramVec // shard-control exchange round trip, by frame kind
}

func newCoordObs(c *Coordinator) *coordObs {
	r := obs.NewRegistry()
	m := &coordObs{reg: r}

	m.routed = r.Counter("innetcoord_readings_routed_total", "Readings accepted by at least one owning shard.")
	m.rejected = r.Counter("innetcoord_readings_rejected_total", "Readings failing validation.")
	m.stale = r.Counter("innetcoord_readings_stale_total", "Readings older than the sliding window.")
	m.failed = r.Counter("innetcoord_readings_failed_total", "Readings no owning shard accepted.")
	m.reroutes = r.Counter("innetcoord_readings_rerouted_total", "Readings routed past a down owner.")
	m.frames = r.Counter("innetcoord_readings_frames_total", "READINGS frames sent.")
	m.merges = r.Counter("innetcoord_merges_total", "Estimate merges served.")
	m.mergesDegraded = r.Counter("innetcoord_merges_degraded_total", "Merges with at least one shard missing.")
	m.mergesCompact = r.Counter("innetcoord_merges_compact_total", "Merges served by the compact iterative path.")
	m.mergeFallbacks = r.Counter("innetcoord_merge_fallbacks_total", "Compact merges that fell back to the full path.")
	m.mergeRounds = r.Counter("innetcoord_merge_rounds_total", "Compact-merge rounds driven.")
	m.mergeBytes = r.Counter("innetcoord_merge_bytes_total", "Compact-merge point payload bytes, both directions.")
	m.mergeFullBytes = r.Counter("innetcoord_merge_full_bytes_total", "Full-path window-snapshot payload bytes received.")
	m.assigns = r.Counter("innetcoord_assigns_total", "ASSIGN epochs acknowledged.")
	m.handoffSen = r.Counter("innetcoord_handoff_sensors_total", "Sensors restored via handoff.")
	m.handoffPts = r.Counter("innetcoord_handoff_points_total", "Points moved via handoff.")
	m.flaps = r.Counter("innetcoord_shard_flaps_total", "Up-to-down shard transitions observed.")
	r.GaugeFunc("innetcoord_shards_up", "Shards the health loop currently considers up.",
		func() float64 { return float64(c.Stats().ShardsUp) })
	r.GaugeFunc("innetcoord_shards", "Shards in the map.",
		func() float64 { return float64(c.Stats().ShardsTotal) })
	r.GaugeFunc("innetcoord_sensors", "Distinct sensors known: routed, or found on a shard at startup.",
		func() float64 { return float64(c.Stats().Sensors) })

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
	// Registered last so existing exposition order is undisturbed.
	obs.RegisterBuildInfo(r)
	return m
}

// rpcObserve is the ctlClient's onRTT hook: one observation per
// successful exchange, labeled by the request frame kind.
func (m *coordObs) rpcObserve(kind protocol.FrameKind, d time.Duration) {
	m.rpcLat.With(kind.MetricLabel()).Observe(d.Seconds())
}
