package cluster

import (
	"errors"
	"fmt"
	"net"
	"net/http"

	"innet/internal/ingest"
	"innet/internal/obs"
)

// The coordinator speaks the same observation wire format as innetd
// (ingest.WireBatch / ingest.WireBatchResult and the UDP line protocol),
// so producers need no changes when a deployment grows from one process
// to a cluster — only the address they point at.

// WireMergedEstimate is the GET /v1/outliers response body: the merged
// view plus how complete it is and what serving it cost.
type WireMergedEstimate struct {
	Outliers     []ingest.WireOutlier `json:"outliers"`
	ShardsTotal  int                  `json:"shards_total"`
	ShardsOK     int                  `json:"shards_ok"`
	Degraded     bool                 `json:"degraded"`
	MapVersion   uint64               `json:"map_version"`
	MergeMode    string               `json:"merge_mode"`    // compact or full (after any fallback)
	Rounds       int                  `json:"rounds"`        // compact rounds driven
	PayloadBytes int                  `json:"payload_bytes"` // point payload moved for this query
	Trace        string               `json:"trace"`         // this query's trace ID (hex); key for /debug/traces
	// Window, present with ?window=1, is the point set the answer was
	// computed over: the merged window union on the full path, the
	// provably sufficient candidate set C on the compact path. External
	// evaluators query ?merge=full&window=1 and recompute the answer
	// with baseline.Compute over it.
	Window []ingest.WireOutlier `json:"window,omitempty"`
}

// Handler returns the coordinator's HTTP API:
//
//	POST   /v1/observations   ingest a JSON batch (routed to owner shards)
//	GET    /v1/outliers       merged outlier estimate across shards
//	GET    /v1/shards         shard states (up/synced/misses/fleet size)
//	POST   /v1/shards/{addr}  add a shard and rebalance
//	DELETE /v1/shards/{addr}  drain and remove a shard
//	GET    /healthz           liveness + shard counts
//	GET    /metrics           counters + histograms in Prometheus text format
//	GET    /debug/traces      recorded query spans (?trace=<hex> filters)
//	GET    /debug/merges      the same spans grouped per compact-merge session
//	GET    /debug/status      one-snapshot cluster view: shards, health,
//	                          build info
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/observations", c.handleObservations)
	mux.HandleFunc("GET /v1/outliers", c.handleOutliers)
	mux.HandleFunc("GET /v1/shards", c.handleShards)
	mux.HandleFunc("POST /v1/shards/{addr}", c.handleAddShard)
	mux.HandleFunc("DELETE /v1/shards/{addr}", c.handleRemoveShard)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.Handle("GET /metrics", c.obs.reg.Handler())
	mux.Handle("GET /debug/merges", obs.RingHandler("merges",
		func() uint64 { return c.obs.mergesCompact.Value() + c.obs.mergeFallbacks.Value() },
		func(_ *http.Request, limit int) any { return c.MergeSessions(limit) }))
	mux.Handle("GET /debug/traces", c.traceLog.Handler())
	mux.HandleFunc("GET /debug/status", c.handleStatus)
	return mux
}

func (c *Coordinator) handleObservations(w http.ResponseWriter, r *http.Request) {
	readings, err := ingest.DecodeBatch(w, r)
	if err != nil {
		c.obs.rejected.Inc()
		ingest.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad batch: %w", err))
		return
	}
	ingest.WriteBatchResult(w, c.IngestBatch(readings))
}

func (c *Coordinator) handleOutliers(w http.ResponseWriter, r *http.Request) {
	res, err := c.MergedEstimateMode(r.Context(), r.URL.Query().Get("merge"))
	switch {
	case errors.Is(err, errMergeMode):
		ingest.WriteError(w, http.StatusBadRequest, err)
		return
	case err != nil:
		ingest.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	resp := WireMergedEstimate{
		Outliers:     ingest.WirePoints(res.Outliers),
		ShardsTotal:  res.ShardsTotal,
		ShardsOK:     res.ShardsOK,
		Degraded:     res.Degraded,
		MapVersion:   res.MapVersion,
		MergeMode:    res.Mode,
		Rounds:       res.Rounds,
		PayloadBytes: res.PayloadBytes,
		Trace:        traceHex(res.Trace),
	}
	if r.URL.Query().Get("window") == "1" {
		resp.Window = ingest.WirePoints(res.Window)
	}
	ingest.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleShards(w http.ResponseWriter, _ *http.Request) {
	ingest.WriteJSON(w, http.StatusOK, map[string]any{"shards": c.ShardInfos()})
}

func (c *Coordinator) handleAddShard(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	if err := c.AddShard(addr); err != nil {
		ingest.WriteError(w, http.StatusBadRequest, err)
		return
	}
	ingest.WriteJSON(w, http.StatusCreated, map[string]any{"added": addr})
}

func (c *Coordinator) handleRemoveShard(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	switch err := c.RemoveShard(addr); {
	case err == nil:
		ingest.WriteJSON(w, http.StatusOK, map[string]any{"removed": addr})
	case errors.Is(err, ErrUnknownShard):
		ingest.WriteError(w, http.StatusNotFound, err)
	default:
		ingest.WriteError(w, http.StatusBadRequest, err)
	}
}

// status names the cluster's health: ok, degraded (a shard is down) or
// down (all are).
func (st Stats) status() string {
	switch {
	case st.ShardsUp == 0:
		return "down"
	case st.ShardsUp < st.ShardsTotal:
		return "degraded"
	}
	return "ok"
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st := c.Stats()
	ingest.WriteJSON(w, http.StatusOK, map[string]any{
		"status":       st.status(),
		"shards_up":    st.ShardsUp,
		"shards_total": st.ShardsTotal,
		"sensors":      st.Sensors,
	})
}

// WireStatus is the GET /debug/status response body: the whole cluster
// in one JSON snapshot, aggregating what /healthz, /v1/shards, and
// /metrics each show a slice of.
type WireStatus struct {
	Status      string        `json:"status"` // ok, degraded or down
	ShardsUp    int           `json:"shards_up"`
	ShardsTotal int           `json:"shards_total"`
	Sensors     int           `json:"sensors"`
	MapVersion  uint64        `json:"map_version"`
	Shards      []ShardInfo   `json:"shards"`
	Traces      uint64        `json:"traces"` // spans recorded so far
	Build       obs.BuildInfo `json:"build_info"`
}

// handleStatus serves the cluster-wide status snapshot: shard map +
// health + probe RTTs + merge-session occupancy (via ShardInfos), and
// build info.
func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := c.Stats()
	ingest.WriteJSON(w, http.StatusOK, WireStatus{
		Status:      st.status(),
		ShardsUp:    st.ShardsUp,
		ShardsTotal: st.ShardsTotal,
		Sensors:     st.Sensors,
		MapVersion:  c.ShardMapSnapshot().Version(),
		Shards:      c.ShardInfos(),
		Traces:      c.traceLog.Total(),
		Build:       obs.ReadBuild(),
	})
}

// ServeUDP accepts the innetd line protocol ("<sensor> <at_ms> <v1>
// [v2 ...]" per line) and routes each datagram's readings as one batch,
// so firehose producers can point at the coordinator unchanged.
// Best-effort like the shard-local listener: rejections are counted, not
// reported. It returns when conn is closed or the coordinator shuts down.
func (c *Coordinator) ServeUDP(conn net.PacketConn) error {
	return ingest.ServeLines(c.ctx, conn, ErrClosed, func(readings []ingest.Reading, malformed int) {
		c.obs.rejected.Add(uint64(malformed))
		if len(readings) > 0 {
			c.IngestBatch(readings)
		}
	})
}
