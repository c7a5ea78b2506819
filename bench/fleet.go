package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/obs"
	"innet/internal/store"
)

// spanCapacity is the program's own span ring, raised from its default so
// that a whole measured stream's enqueue/observe spans survive to be read
// back (two per drained batch, 16 batches per round).
const spanCapacity = 1 << 17

// compactEvery is fleet_wal's compaction threshold in WAL records (128
// rounds). walTailRounds is how much WAL its restart replays on top of
// the snapshot: half a cycle, what a crash finds on average.
const (
	compactEvery  = 2048
	walTailRounds = compactEvery / fleetSensors / 2
)

// fleet is one standalone ingest.Service with 16 joined sensors on the
// default clique — the engine of a standalone innetd and of one shard.
type fleet struct {
	svc   *ingest.Service
	store *tracedStore // nil without a WAL
	dir   string       // WAL directory, "" without a WAL

	res      *result
	lines    lineCounts
	failed   uint64 // Ingest errors that are neither stale nor a rejection
	joinTime time.Duration
}

// tracedStore forwards to a store.File and records an AppendReadings span
// per call; the calls come from the feeder goroutines.
type tracedStore struct {
	*store.File
	tr *tracer
}

func (s *tracedStore) AppendReadings(recs []store.Record) error {
	if s.tr == nil {
		return s.File.AppendReadings(recs)
	}
	start := time.Now()
	err := s.File.AppendReadings(recs)
	s.tr.record("store.AppendReadings", start, time.Since(start))
	return err
}

// newFleet builds the service and joins the sensors; with walDir set the
// windows are made durable in a store.File there (no fsync per append:
// the disk of a shared sandbox is not a property of the program).
// Inexact answers, conservation mismatches and layer numbers go to res.
func newFleet(walDir string, res *result) (*fleet, error) {
	f := &fleet{dir: walDir, res: res}
	cfg := ingest.Config{Detector: detectorConfig(), SpanCapacity: spanCapacity}
	if walDir != "" {
		file, err := store.Open(store.Config{Dir: walDir})
		if err != nil {
			return nil, err
		}
		f.store = &tracedStore{File: file}
		cfg.Store = f.store
		cfg.CompactEvery = compactEvery
	}
	svc, err := ingest.New(cfg)
	if err != nil {
		return nil, err
	}
	f.svc = svc
	start := time.Now()
	for id := core.NodeID(1); id <= fleetSensors; id++ {
		if err := svc.Join(id); err != nil {
			f.close()
			return nil, fmt.Errorf("join %d: %w", id, err)
		}
	}
	f.joinTime = time.Since(start)
	return f, nil
}

func (f *fleet) setTracer(tr *tracer) {
	if f.store != nil {
		f.store.tr = tr
	}
}

func (f *fleet) step(tr *tracer, dgram []byte) (stepSample, error) {
	f.setTracer(tr)
	s := stepSample{ops: -int(f.lines.parsed)}
	clock := startStep()
	root := tr.begin("bench.step")
	parseDatagram(tr, dgram, &f.lines, func(r ingest.Reading) {
		sp := tr.begin("ingest.Ingest")
		err := f.svc.Ingest(r)
		tr.end(sp)
		if err != nil && !errors.Is(err, ingest.ErrStale) && !errors.Is(err, ingest.ErrBadReading) &&
			!errors.Is(err, ingest.ErrUnknownSensor) {
			f.failed++
		}
	})
	sp := tr.begin("ingest.Flush")
	err := f.svc.Flush(bg)
	tr.end(sp)
	tr.end(root)
	clock.stop(&s)
	s.ops += int(f.lines.parsed)
	return s, err
}

func (f *fleet) fill(dgram []byte) error {
	_, err := f.step(nil, dgram)
	return err
}

func (f *fleet) readPath() *ingest.Service { return f.svc }

// between checks every sensor's estimate against the oracle over the
// service's own window snapshot.
func (f *fleet) between() error {
	snap, err := f.svc.Snapshot(bg)
	if err != nil {
		return err
	}
	want := oracle(nil, snap)
	for _, id := range f.svc.Sensors() {
		got, err := f.svc.Estimate(id)
		if err != nil {
			return err
		}
		f.res.check(sameIDs(want, got), fmt.Sprintf("sensor %d over %d points", id, len(snap)))
	}
	return nil
}

func (f *fleet) conserve() {
	res := f.res
	st := f.svc.Stats()
	checkEqual(res, "lines = parsed + malformed", f.lines.lines, f.lines.parsed+f.lines.malformed)
	checkEqual(res, "parsed = accepted + stale + rejected + failed",
		f.lines.parsed, st.Accepted+st.Stale+st.Malformed+st.Unknown+f.failed)
	checkEqual(res, "accepted = observed + dropped", st.Accepted, st.Observed+st.Dropped)
	if m, walErrors, _, ok := f.svc.StoreMetrics(); ok {
		checkEqual(res, "observed = wal records", st.Observed, m.WALRecords)
		checkEqual(res, "wal errors", walErrors, 0)
	}
	res.Attempted += f.lines.lines
	res.Failed += f.lines.lines - st.Observed
}

func (f *fleet) layers() {
	res := f.res
	st := f.svc.Stats()
	m := res.Metrics
	if st.Observed > 0 {
		m["ingest.batches_per_reading"] = float64(st.Batches) / float64(st.Observed)
	}
	m["ingest.dropped"] = float64(st.Dropped)
	m["ingest.stale"] = float64(st.Stale)
	m["ingest.malformed"] = float64(st.Malformed + f.lines.malformed)
	m["ingest.join_ms_per_sensor"] = ms(f.joinTime) / fleetSensors
	ringLayers(res, f.svc.Traces())
	if sm, _, _, ok := f.svc.StoreMetrics(); ok && st.Observed > 0 {
		m["store.wal_bytes_per_reading"] = float64(sm.WALBytes) / float64(sm.WALRecords)
		m["store.compacts"] = float64(sm.Compacts)
	}
}

// ringLayers reads queue wait and batch-observe time back from the
// service's own span ring.
func ringLayers(res *result, ring *obs.TraceLog) {
	var wait, observe []float64
	for _, s := range ring.Snapshot(0, 0) {
		switch s.Op {
		case obs.OpEnqueue:
			wait = append(wait, ms(s.Dur))
		case obs.OpObserve:
			observe = append(observe, ms(s.Dur))
		}
	}
	res.Metrics["ingest.queue_wait_p50_ms"] = median(wait)
	res.Samples["ingest.queue_wait_p50_ms"] = len(wait)
	res.Metrics["ingest.observe_batch_p50_ms"] = median(observe)
	res.Samples["ingest.observe_batch_p50_ms"] = len(observe)
}

func (f *fleet) close() error {
	err := f.svc.Close()
	if f.store != nil {
		if cerr := f.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// pinWALTail puts the store in the same state before every restart: a
// fresh snapshot and then walTailRounds more rounds (fewer if the stream
// runs out) in the WAL. Where a time-bounded run stops in the compaction
// cycle is chance, and with it recover_s ran from 0.09 s to 0.19 s.
func (f *fleet) pinWALTail(stream [][]byte) error {
	if err := f.svc.CompactStore(bg); err != nil {
		return err
	}
	for _, d := range stream[:min(walTailRounds, len(stream))] {
		if err := f.fill(d); err != nil {
			return err
		}
	}
	return nil
}

// recover closes the fleet, reopens its store into a fresh service and
// warms it: the restart a crashed shard goes through. It checks that the
// recovered window is the one held before the close and returns the time
// from reopening the store to Warm returning, and Warm's own part of it.
// The fleet is closed on return.
func (f *fleet) recover(tr *tracer) (recovered, warm time.Duration, err error) {
	before, err := f.svc.Snapshot(bg)
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	file, err := store.Open(store.Config{Dir: f.dir})
	if err != nil {
		return 0, 0, err
	}
	next := &fleet{dir: f.dir, store: &tracedStore{File: file}}
	next.svc, err = ingest.New(ingest.Config{
		Detector: detectorConfig(), SpanCapacity: spanCapacity, Store: next.store, CompactEvery: compactEvery,
	})
	if err != nil {
		file.Close()
		return 0, 0, err
	}
	defer next.close()
	warmStart := time.Now()
	sp := tr.begin("ingest.Warm")
	_, err = next.svc.Warm(bg)
	tr.end(sp)
	recovered, warm = time.Since(start), time.Since(warmStart)
	if err != nil {
		return 0, 0, err
	}
	after, err := next.svc.Snapshot(bg)
	if err != nil {
		return 0, 0, err
	}
	if !samePoints(before, after) {
		f.res.fail("recovered window differs: %d points before the restart, %d after", len(before), len(after))
	}
	return recovered, warm, nil
}

// samePoints reports whether two sorted snapshots hold the same points
// with the same values.
func samePoints(a, b []core.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Birth != b[i].Birth || len(a[i].Value) != len(b[i].Value) {
			return false
		}
		for d := range a[i].Value {
			if a[i].Value[d] != b[i].Value[d] {
				return false
			}
		}
	}
	return true
}

// walDir makes a fresh WAL directory under the output directory, inside
// the checkout.
func walDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "wal-")
}
