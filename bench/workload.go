package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
	"innet/internal/ingest"
)

// options is one invocation of one workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for span files and the WAL's temp dir

	// smoke, when positive, replaces the sizing with one set-up of that
	// many rounds and about that many measured steps (the tier-1 tests).
	smoke int
}

// result is what one workload run measured, keyed by the metric names of
// BENCHMARK.json (plus the names only the text report prints).
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each timing metric; Low and High
	// are the extremes across the run's segments (one per measured system,
	// untraced), printed as the spread.
	Samples map[string]int     `json:"samples,omitempty"`
	Low     map[string]float64 `json:"low,omitempty"`
	High    map[string]float64 `json:"high,omitempty"`
	Notes   []string           `json:"notes,omitempty"`   // conservation mismatches, inexact answers
	Remarks []string           `json:"remarks,omitempty"` // what a reader of the numbers must know

	exact  exactness            // answers checked against the oracle
	folded map[string][]float64 // each measured system's own numbers, by metric
}

func newResult(o options) *result {
	return &result{
		Workload: o.workload, Seed: o.seed, Traced: o.trace, Correct: true,
		Metrics: map[string]float64{}, Samples: map[string]int{},
		Low: map[string]float64{}, High: map[string]float64{},
		folded: map[string][]float64{},
	}
}

// fold takes in what one measured system reported about itself: its
// counters, rings and checks.
func (r *result) fold(sub *result) {
	r.Correct = r.Correct && sub.Correct
	r.Attempted += sub.Attempted
	r.Failed += sub.Failed
	r.Notes = append(r.Notes, sub.Notes...)
	r.exact.checked += sub.exact.checked
	r.exact.exact += sub.exact.exact
	for name, v := range sub.Metrics {
		r.folded[name] = append(r.folded[name], v)
	}
	for name, n := range sub.Samples {
		r.Samples[name] += n
	}
}

// finish turns what was folded in into metrics: the median over the
// systems, with the extremes as the spread, and exact_share over all the
// answers checked.
func (r *result) finish() {
	for name, vs := range r.folded {
		r.Metrics[name] = median(vs)
		if len(vs) > 1 {
			r.Low[name], r.High[name] = minMax(vs)
		}
	}
	if r.exact.checked > 0 {
		r.Metrics["exact_share"] = r.exact.share()
	}
}

// putSetups records setup_s as the median of the run's set-up times.
func (r *result) putSetups(seconds []float64) {
	r.Metrics["setup_s"] = median(seconds)
	r.Low["setup_s"], r.High["setup_s"] = minMax(seconds)
	r.Samples["setup_s"] = len(seconds)
}

func (r *result) remark(format string, args ...any) {
	r.Remarks = append(r.Remarks, fmt.Sprintf(format, args...))
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// stepSample is the driver's view of one closed-loop step. total is what
// the single client waited; the parts are zero where a step has none, and
// on the fleets, whose step is settling and nothing else, all of them are.
type stepSample struct {
	total   time.Duration
	settle  time.Duration // datagram in → last Flush returned, when queries follow
	compact time.Duration // one MergedEstimateMode("compact")
	full    time.Duration // one MergedEstimateMode("full")
	cpu     time.Duration // process CPU spent during the step
	allocs  uint64        // heap objects allocated during the step
	ops     int           // readings settled, or queries answered
}

// stepClock reads the clocks a step is charged on: wall, process CPU and
// heap objects allocated. All three reads are cheap enough (no
// stop-the-world) to take around every step, which keeps the oracle's own
// work between steps out of the numbers.
type stepClock struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
}

func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

func startStep() stepClock {
	return stepClock{allocs: heapAllocs(), cpu: cpuTime(), wall: time.Now()}
}

// stop charges the step with everything since startStep.
func (c stepClock) stop(s *stepSample) {
	s.total = time.Since(c.wall)
	s.cpu = cpuTime() - c.cpu
	s.allocs = heapAllocs() - c.allocs
}

// system is a program under test assembled from the packages' exported
// APIs, driven one datagram at a time from the one driver goroutine.
type system interface {
	// step hands the system one datagram and waits for the answer to be
	// ready. Only the driver's own waiting is timed.
	step(tr *tracer, dgram []byte) (stepSample, error)
	// fill ingests one set-up datagram and waits for it to settle.
	fill(dgram []byte) error
	// readPath is the service whose Snapshot and Estimate calls the traced
	// run times in isolation.
	readPath() *ingest.Service
	// between runs after every verifyEvery-th step, outside any timed
	// section: the fleets compare every sensor's estimate with
	// baseline.Compute over their own window snapshot, the query-only
	// cluster ingests one round.
	between() error
	// conserve checks the counters to the reading and counts the
	// operations attempted and failed.
	conserve()
	// layers adds the workload's per-layer numbers from the program's own
	// counters and trace rings.
	layers()
	close() error
}

// verifyEvery is how often (in steps) system.between runs.
const verifyEvery = 25

// rusage reads the process's resource usage; it cannot fail for
// RUSAGE_SELF with a valid pointer, and a zero value reads as no usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// measured is the samples of one pass over part of the stream.
type measured struct {
	samples []stepSample
}

func (m measured) col(f func(stepSample) time.Duration) []float64 {
	out := make([]float64, 0, len(m.samples))
	for _, s := range m.samples {
		if d := f(s); d > 0 {
			out = append(out, ms(d))
		}
	}
	return out
}

func (m measured) sum(f func(stepSample) time.Duration) (total time.Duration, ops int) {
	for _, s := range m.samples {
		total += f(s)
		ops += s.ops
	}
	return total, ops
}

// halves cuts the samples into the first and the second half of the run.
func (m measured) halves() []measured {
	mid := len(m.samples) / 2
	return []measured{{m.samples[:mid]}, {m.samples[mid:]}}
}

// drive runs steps until the wall budget is spent (or maxSteps steps are
// done, or the rendered input runs out) and returns what is left of the
// input. With a tracer it records spans on two steps of every four —
// untraced, traced, traced, untraced — and returns those steps apart:
// both kinds then meet the same stretches of the input and the same drift
// of the box, and their difference is the tracing overhead. (Cut into
// whole segments instead, the traced ones ran 3% to 40% faster or slower
// than the untraced, on five workloads of six with the same sign run after
// run: what a step costs follows the input.)
func drive(sys system, tr *tracer, input [][]byte, budget time.Duration, maxSteps int) (plain, traced measured, rest [][]byte, err error) {
	start := time.Now()
	next := 0
	for ; next < len(input); next++ {
		if maxSteps > 0 && next >= maxSteps {
			break
		}
		if maxSteps <= 0 && time.Since(start) >= budget {
			break
		}
		if next > 0 && next%verifyEvery == 0 {
			if err := sys.between(); err != nil {
				return plain, traced, input[next:], err
			}
		}
		tr.nextStep()
		if tr != nil && (next%4 == 1 || next%4 == 2) {
			s, err := sys.step(tr, input[next])
			if err != nil {
				return plain, traced, input[next+1:], err
			}
			traced.samples = append(traced.samples, s)
			continue
		}
		s, err := sys.step(nil, input[next])
		if err != nil {
			return plain, traced, input[next+1:], err
		}
		plain.samples = append(plain.samples, s)
	}
	return plain, traced, input[next:], nil
}

// sameIDs reports whether two answers name the same points.
func sameIDs(a, b []core.Point) bool {
	if len(a) != len(b) {
		return false
	}
	want := make(map[core.PointID]bool, len(a))
	for _, p := range a {
		want[p.ID] = true
	}
	for _, p := range b {
		if !want[p.ID] {
			return false
		}
	}
	return true
}

// oracle is the centralized answer over the given window snapshots.
func oracle(tr *tracer, windows ...[]core.Point) []core.Point {
	sp := tr.begin("baseline.Compute")
	defer tr.end(sp)
	cfg := detectorConfig()
	return baseline.Compute(cfg.Ranker, cfg.N, windows...)
}

// exactness counts answers checked against the oracle.
type exactness struct{ checked, exact uint64 }

// check counts one answer compared with the oracle; an inexact one fails
// the run.
func (r *result) check(ok bool, what string) {
	r.exact.checked++
	if ok {
		r.exact.exact++
		return
	}
	r.fail("inexact answer: %s", what)
}

func (e exactness) share() float64 {
	if e.checked == 0 {
		return 0
	}
	return float64(e.exact) / float64(e.checked)
}

// checkEqual fails the run when the two sides of a counter identity
// differ, printing both.
func checkEqual(res *result, what string, left, right uint64) {
	if left != right {
		res.fail("conservation: %s: %d != %d", what, left, right)
	}
}

// gcPauseNs is the total stop-the-world pause so far. ReadMemStats stops
// the world itself, so it is read around the measured stream, not around
// steps.
func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

var bg = context.Background()
