package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// stepWorkload sizes one lockstep workload: a closed loop with one client
// and one datagram in flight — the paper's sampling period.
type stepWorkload struct {
	roundsPerStep int // trace rounds packed into one datagram
	fillSteps     int // set-up steps, enough to fill the 200 s window
	capPerSecond  int // datagrams rendered per measured second, an upper bound on the step rate
	wal           bool
	queryOnly     bool
	cluster       bool
	quiet         bool // the quiet scenario, not the faulty one (see input.go)
	pinSeed       bool // one stream whatever --seed says (see pinnedSeed)
}

var stepWorkloads = map[string]stepWorkload{
	"fleet_round":   {roundsPerStep: 1, fillSteps: windowRounds, capPerSecond: 1000},
	"fleet_quiet":   {roundsPerStep: 1, fillSteps: windowRounds, capPerSecond: 1000, quiet: true, pinSeed: true},
	"fleet_burst":   {roundsPerStep: 8, fillSteps: windowRounds / 8, capPerSecond: 250, pinSeed: true},
	"fleet_wal":     {roundsPerStep: 1, fillSteps: windowRounds, capPerSecond: 1000, wal: true},
	"cluster_mixed": {roundsPerStep: 1, fillSteps: windowRounds, capPerSecond: 1000, cluster: true},
	"cluster_query": {roundsPerStep: 1, fillSteps: windowRounds, capPerSecond: 1000, cluster: true, queryOnly: true},
}

// setUps is how many times the untraced run builds, fills and measures the
// system, each time for a third of the seconds on its own part of the
// trace. setup_s and every other metric is the median over the three. One
// system is not enough: what a step costs is set by the stretch of input
// the system was filled with, and some by chance, and it keeps to it for
// as long as it is measured. On one seed of fleet_burst, four systems
// filled from one part of the trace all settled in 5.3–5.6 ms a step (190
// allocations a reading), four filled from another in 8.7, 8.8, 12.6 and
// 13.1 ms (283–402), and eight from two more in 9.0–11.3 ms (316–356).
const setUps = 3

// runSteps runs one lockstep workload: set-up (build, join, fill the
// window), the measured stream, the checks — three times over untraced,
// once traced.
func runSteps(o options, w stepWorkload) (*result, error) {
	res := newResult(o)
	sc := scenarioFor(o)
	if w.pinSeed {
		res.remark("--seed is ignored: this workload always runs the stream of seed %d", uint64(pinnedSeed))
	}

	// Untraced: three systems. Traced: one, in which the driver records spans
	// on two steps of every four (see drive).
	systems := setUps
	var tr *tracer
	if o.trace {
		tr = newTracer()
		systems = 1
	} else if o.smoke > 0 {
		systems = 1
	}

	// The trace is cut into one part per system: the rounds that fill its
	// window, then its share of the measured stream, so that the systems
	// meet different stretches of the input and not the same one again.
	capSteps := int(o.seconds*float64(w.capPerSecond))/systems + 1
	if o.smoke > 0 {
		capSteps = o.smoke
		w.fillSteps = max(1, o.smoke/w.roundsPerStep)
	}
	part := w.fillSteps + capSteps
	rendered := datagrams(sc, systems*part, w.roundsPerStep)
	budget := time.Duration(o.seconds * float64(time.Second) / float64(systems))

	var setups []float64
	var plain []measured
	var traced measured
	for i := 0; i < systems; i++ {
		fill, stream := rendered[i*part:i*part+w.fillSteps], rendered[i*part+w.fillSteps:(i+1)*part]
		sub := newResult(o)
		took, p, t, err := runSystem(o, w, fill, stream, budget, sub, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		plain, traced = append(plain, p), t
		res.fold(sub)
	}
	res.putSetups(setups)
	res.finish()
	stepMetrics(res, plain)
	res.Metrics["proc.peak_rss_mb"] = peakRSSMB()
	if o.trace {
		res.putOverhead(plain[0].halves(), traced.halves())
		spanLayers(res, tr)
		if err := writeSpans(o, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runSystem builds one system and fills its window (the time that takes is
// returned), drives it over the stream for the budget, then checks it,
// reads its layers' numbers into sub, and closes it. stream is also what
// the query-only cluster refreshes its window from.
func runSystem(o options, w stepWorkload, fill, stream [][]byte, budget time.Duration, sub *result, tr *tracer) (
	took time.Duration, plain, traced measured, err error) {
	start := time.Now()
	var sys system
	switch {
	case w.cluster:
		sys, err = newShardCluster(w.queryOnly, stream, sub)
	case w.wal:
		var dir string
		if dir, err = walDir(o.out); err == nil {
			defer os.RemoveAll(dir)
			sys, err = newFleet(dir, sub)
		}
	default:
		sys, err = newFleet("", sub)
	}
	if err != nil {
		return 0, plain, traced, err
	}
	closed := false
	defer func() {
		if !closed {
			sys.close()
		}
	}()
	for _, d := range fill {
		if err = sys.fill(d); err != nil {
			return 0, plain, traced, err
		}
	}
	took = time.Since(start)
	sub.Metrics["proc.goroutines"] = float64(runtime.NumGoroutine())
	if err = sys.between(); err != nil { // the filled window, before anything is timed
		return 0, plain, traced, err
	}
	before := gcPauseNs()
	plain, traced, rest, err := drive(sys, tr, stream, budget, o.smoke)
	if err != nil {
		return 0, plain, traced, err
	}
	sub.Metrics["proc.gc_pause_ms"] = float64(gcPauseNs()-before) / 1e6
	if err = sys.between(); err != nil {
		return 0, plain, traced, err
	}
	if tr != nil {
		probeReads(sys, tr)
	}
	sys.layers()
	if w.wal {
		f := sys.(*fleet)
		if err = f.pinWALTail(rest); err != nil {
			return 0, plain, traced, err
		}
		closed = true // recover closes the fleet, whatever it returns
		recovered, warm, err := f.recover(tr)
		sys.conserve() // the counters outlive the close
		if err != nil {
			return 0, plain, traced, err
		}
		sub.Metrics["recover_s"] = recovered.Seconds()
		sub.Metrics["ingest.warm_ms"] = ms(warm)
		return took, plain, traced, nil
	}
	sys.conserve()
	closed = true
	return took, plain, traced, sys.close()
}

// stepMetrics turns the untraced segments into the end-to-end metrics and,
// where a step has parts (settle, then queries), the breakdown of them. A
// workload whose step is one part measures it under the step_* names only.
func stepMetrics(res *result, parts []measured) {
	total := func(s stepSample) time.Duration { return s.total }
	settle := func(s stepSample) time.Duration { return s.settle }
	compact := func(s stepSample) time.Duration { return s.compact }
	full := func(s stepSample) time.Duration { return s.full }

	// perSegment puts the median of a per-segment value under name, with
	// the extremes as the spread.
	perSegment := func(name string, f func(measured) (float64, int)) {
		var vals []float64
		n := 0
		for _, m := range parts {
			v, count := f(m)
			if count == 0 {
				return
			}
			vals = append(vals, v)
			n += count
		}
		res.Metrics[name] = median(vals)
		res.Low[name], res.High[name] = minMax(vals)
		res.Samples[name] = n
	}
	// tail puts the pooled p95 under name: a segment alone can hold too
	// few samples for ten to lie beyond it.
	tail := func(name string, col func(stepSample) time.Duration) {
		var pooled, per []float64
		for _, m := range parts {
			c := m.col(col)
			pooled = append(pooled, c...)
			per = append(per, percentile(c, 0.95))
		}
		if len(pooled) == 0 {
			return
		}
		res.Metrics[name] = percentile(pooled, 0.95)
		res.Low[name], res.High[name] = minMax(per)
		res.Samples[name] = len(pooled)
	}
	p50 := func(col func(stepSample) time.Duration) func(measured) (float64, int) {
		return func(m measured) (float64, int) {
			c := m.col(col)
			return percentile(c, 0.5), len(c)
		}
	}
	rate := func(col func(stepSample) time.Duration) func(measured) (float64, int) {
		return func(m measured) (float64, int) {
			d, ops := m.sum(col)
			if d == 0 {
				return 0, 0
			}
			return float64(ops) / d.Seconds(), len(m.samples)
		}
	}

	perSegment("step_p50_ms", p50(total))
	tail("step_p95_ms", total)
	perSegment("ops_per_s", rate(total))
	perSegment("cpu_ms_per_op", func(m measured) (float64, int) {
		cpu, ops := m.sum(func(s stepSample) time.Duration { return s.cpu })
		if ops == 0 {
			return 0, 0
		}
		return ms(cpu) / float64(ops), len(m.samples)
	})
	perSegment("proc.allocs_per_op", func(m measured) (float64, int) {
		var allocs uint64
		ops := 0
		for _, s := range m.samples {
			allocs += s.allocs
			ops += s.ops
		}
		if ops == 0 {
			return 0, 0
		}
		return float64(allocs) / float64(ops), len(m.samples)
	})

	perSegment("settle_p50_ms", p50(settle))
	tail("settle_p95_ms", settle)
	perSegment("readings_per_s", rate(settle))
	perSegment("query_compact_p50_ms", p50(compact))
	tail("query_compact_p95_ms", compact)
	perSegment("query_full_p50_ms", p50(full))
	tail("query_full_p95_ms", full)
}

// putOverhead records bench.trace_overhead_share: the share by which the
// traced steps' median time exceeds the untraced steps' (the median, because
// step times are heavy-tailed — p95 is 2.5 times p50 — and which kind of
// step a costly one lands on is fixed by the seed). plain[i] and
// traced[i] ran interleaved over the same stretch of the run; each such
// pair gives one share, the metric is their mean and the extremes are the
// spread — when they straddle zero the overhead is below what steps
// differ by anyway.
func (r *result) putOverhead(plain, traced []measured) {
	var shares []float64
	for i := 0; i < len(plain) && i < len(traced); i++ {
		total := func(s stepSample) time.Duration { return s.total }
		if base := median(plain[i].col(total)); base > 0 && len(traced[i].samples) > 0 {
			shares = append(shares, (median(traced[i].col(total))-base)/base)
		}
	}
	const name = "bench.trace_overhead_share"
	r.Metrics[name] = mean(shares)
	r.Low[name], r.High[name] = minMax(shares)
	r.Samples[name] = len(shares)
}

// probeReads times the read path the queries and checks stand on —
// Snapshot (one event-loop round trip per sensor) and Estimate — on the
// filled system, with nothing else running.
func probeReads(sys system, tr *tracer) {
	svc := sys.readPath()
	for i := 0; i < 50; i++ {
		sp := tr.begin("ingest.Snapshot")
		_, _ = svc.Snapshot(bg) // a failure shows as an inexact answer in the checks
		tr.end(sp)
	}
	ids := svc.Sensors()
	for i := 0; i < 2000; i++ {
		sp := tr.begin("ingest.Estimate")
		_, _ = svc.Estimate(ids[i%len(ids)])
		tr.end(sp)
	}
}

// spanLayers derives the per-layer timings the bench's own spans give.
func spanLayers(res *result, tr *tracer) {
	by := make(map[string][]float64) // name → durations in ns
	for _, s := range tr.spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start))
	}
	put := func(name, span string, scale float64, f func([]float64) float64) {
		if d := by[span]; len(d) > 0 {
			res.Metrics[name] = f(d) / scale
			res.Samples[name] = len(d)
		}
	}
	put("ingest.parse_ns_per_line", "ingest.ParseLine", 1, mean)
	put("ingest.ingest_call_us_p50", "ingest.Ingest", 1e3, median)
	put("ingest.flush_wait_ms_p50", "ingest.Flush", 1e6, median)
	put("ingest.snapshot_ms_p50", "ingest.Snapshot", 1e6, median)
	put("ingest.estimate_ns_p50", "ingest.Estimate", 1, median)
	put("store.append_live_us", "store.AppendReadings", 1e3, mean)
}

// writeSpans writes the workload's span file and prints its ledger.
func writeSpans(o options, tr *tracer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans_%s_%d.jsonl", o.workload, o.seed))
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %d in %s\n", len(tr.spans), path)
	fmt.Fprintf(os.Stderr, "%-40s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, row := range tr.ledger() {
		fmt.Fprintf(os.Stderr, "%-40s %8d %12.3f %12.3f\n", row.Name, row.Count, ms(row.Total), ms(row.Self))
	}
	return nil
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
