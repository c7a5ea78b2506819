package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"innet/internal/core"
)

// HTTP wire types. Timestamps travel as integer milliseconds of data
// time, matching the wire codec's birth encoding.

// WireReading is one reading in a POST /v1/observations batch.
type WireReading struct {
	Sensor uint16    `json:"sensor"`
	AtMS   int64     `json:"at_ms"`
	Values []float64 `json:"values"`
}

// WireBatch is the POST /v1/observations request body.
type WireBatch struct {
	Readings []WireReading `json:"readings"`
}

// WireRejection explains one reading the batch endpoint did not admit.
type WireRejection struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// WireBatchResult is the POST /v1/observations response body.
type WireBatchResult struct {
	Accepted int             `json:"accepted"`
	Rejected []WireRejection `json:"rejected,omitempty"`
}

// WireOutlier is one estimated outlier on the query endpoint.
type WireOutlier struct {
	Sensor uint16    `json:"sensor"`
	Seq    uint32    `json:"seq"`
	AtMS   int64     `json:"at_ms"`
	Values []float64 `json:"values"`
}

// WireEstimate is the GET /v1/outliers response body: the estimate as
// seen by one sensor (after a quiescent exchange all sensors running the
// global algorithm agree). With ?window=1 it also carries the fleet's
// window union — the exact dataset the estimate ranks — so an external
// evaluator can recompute the answer it should have gotten.
type WireEstimate struct {
	Sensor   uint16        `json:"sensor"`
	Outliers []WireOutlier `json:"outliers"`
	Window   []WireOutlier `json:"window,omitempty"`
}

// WirePoints converts core points to their wire form.
func WirePoints(pts []core.Point) []WireOutlier {
	out := make([]WireOutlier, 0, len(pts))
	for _, p := range pts {
		out = append(out, WireOutlier{
			Sensor: uint16(p.ID.Origin),
			Seq:    p.ID.Seq,
			AtMS:   p.Birth.Milliseconds(),
			Values: p.Value,
		})
	}
	return out
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/observations   ingest a JSON batch of readings
//	GET    /v1/outliers       current estimate (?sensor=ID, default lowest;
//	                          &window=1 adds the fleet's window union)
//	POST   /v1/flush          barrier: block until ingested == observed
//	                          and the mesh is quiescent
//	GET    /v1/sensors        attached sensor IDs and queue depths
//	POST   /v1/sensors/{id}   join a sensor explicitly
//	DELETE /v1/sensors/{id}   leave (detach) a sensor
//	GET    /healthz           liveness + fleet size
//	GET    /metrics           counters in Prometheus text format
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/observations", s.handleObservations)
	mux.HandleFunc("GET /v1/outliers", s.handleOutliers)
	mux.HandleFunc("POST /v1/flush", s.handleFlush)
	mux.HandleFunc("GET /v1/sensors", s.handleSensors)
	mux.HandleFunc("POST /v1/sensors/{id}", s.handleJoin)
	mux.HandleFunc("DELETE /v1/sensors/{id}", s.handleLeave)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.obs.reg.Handler())
	mux.Handle("GET /debug/traces", s.traces.Handler())
	return mux
}

// WriteJSON answers with status and v encoded as JSON. Both daemons' HTTP
// APIs — this service's and the cluster coordinator's — answer through
// it and WriteError.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and {"error": err}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// DecodeBatch reads a POST /v1/observations body into the readings it
// carries. Both front doors speaking this format — this service's and the
// cluster coordinator's — decode through it.
func DecodeBatch(w http.ResponseWriter, r *http.Request) ([]Reading, error) {
	var batch WireBatch
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return nil, err
	}
	readings := make([]Reading, len(batch.Readings))
	for i, wr := range batch.Readings {
		readings[i] = Reading{
			Sensor: core.NodeID(wr.Sensor),
			At:     time.Duration(wr.AtMS) * time.Millisecond,
			Values: wr.Values,
		}
	}
	return readings, nil
}

// WriteBatchResult answers a decoded batch with its per-reading outcomes
// (errs[i] is nil where reading i was admitted): 202 unless every
// reading was rejected.
func WriteBatchResult(w http.ResponseWriter, errs []error) {
	result := WireBatchResult{}
	for i, err := range errs {
		if err != nil {
			result.Rejected = append(result.Rejected, WireRejection{Index: i, Error: err.Error()})
			continue
		}
		result.Accepted++
	}
	status := http.StatusAccepted
	if result.Accepted == 0 && len(result.Rejected) > 0 {
		status = http.StatusBadRequest
	}
	WriteJSON(w, status, result)
}

func (s *Service) handleObservations(w http.ResponseWriter, r *http.Request) {
	readings, err := DecodeBatch(w, r)
	if err != nil {
		s.malformed.Add(1)
		WriteError(w, http.StatusBadRequest, fmt.Errorf("ingest: bad batch: %w", err))
		return
	}
	errs := make([]error, len(readings))
	for i, rd := range readings {
		errs[i] = s.Ingest(rd)
	}
	WriteBatchResult(w, errs)
}

func (s *Service) handleOutliers(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		s.obs.queryLat.Observe(elapsed.Seconds())
		if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
			s.cfg.Logger.Warn("slow query",
				"query", "GET /v1/outliers?"+r.URL.RawQuery,
				"elapsed", elapsed.Round(time.Microsecond), "threshold", s.cfg.SlowQuery)
		}
	}()
	var id core.NodeID
	if q := r.URL.Query().Get("sensor"); q != "" {
		n, err := strconv.ParseUint(q, 10, 16)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("ingest: bad sensor %q", q))
			return
		}
		id = core.NodeID(n)
	} else {
		ids := s.Sensors()
		if len(ids) == 0 {
			WriteError(w, http.StatusNotFound, errors.New("ingest: no sensors attached"))
			return
		}
		id = ids[0]
	}
	est, err := s.Estimate(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	resp := WireEstimate{Sensor: uint16(id), Outliers: WirePoints(est)}
	if r.URL.Query().Get("window") == "1" {
		win, err := s.Snapshot(r.Context())
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Window = WirePoints(win)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleFlush blocks until every reading accepted before the call has
// been observed and the mesh has converged — the ingestion barrier the
// load harness's exactness checkpoints freeze the daemon with before
// comparing its answer to the centralized baseline.
func (s *Service) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := s.Flush(r.Context()); err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		WriteError(w, status, err)
		return
	}
	st := s.Stats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"flushed":  true,
		"observed": st.Observed,
		"pending":  st.Pending,
	})
}

func (s *Service) handleSensors(w http.ResponseWriter, _ *http.Request) {
	type sensorInfo struct {
		ID    uint16 `json:"id"`
		Queue int    `json:"queue"`
		Drops uint64 `json:"drops"`
	}
	stats := s.SensorStats()
	out := make([]sensorInfo, 0, len(stats))
	for _, st := range stats {
		out = append(out, sensorInfo{ID: uint16(st.ID), Queue: st.Queue, Drops: st.Drops})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"sensors": out})
}

func pathSensorID(r *http.Request) (core.NodeID, error) {
	n, err := strconv.ParseUint(r.PathValue("id"), 10, 16)
	if err != nil {
		return 0, fmt.Errorf("ingest: bad sensor id %q", r.PathValue("id"))
	}
	return core.NodeID(n), nil
}

func (s *Service) handleJoin(w http.ResponseWriter, r *http.Request) {
	id, err := pathSensorID(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	switch err := s.Join(id); {
	case err == nil:
		WriteJSON(w, http.StatusCreated, map[string]any{"joined": uint16(id)})
	case errors.Is(err, ErrAlreadyJoined):
		WriteError(w, http.StatusConflict, err)
	default:
		WriteError(w, http.StatusBadRequest, err)
	}
}

func (s *Service) handleLeave(w http.ResponseWriter, r *http.Request) {
	id, err := pathSensorID(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.Leave(id); err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"left": uint16(id)})
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"sensors": len(s.Sensors()),
	})
}
