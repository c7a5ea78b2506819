// Package obs is the observability layer shared by every daemon in the
// system: a stdlib-only metrics registry (counters, gauges, fixed-bucket
// histograms — all atomic and allocation-free on the hot path) with
// Prometheus text exposition, a bounded merge-session trace ring for the
// paper's Algorithm 1 exchanges, and the pprof/runtime debug endpoint
// behind -debug-addr.
//
// The registry replaces the hand-rolled /metrics writers that ingest and
// cluster used to carry separately. Metric families render in
// registration order, each as a `# HELP` line, a `# TYPE` line, and its
// samples — so callers control the page layout by registration order and
// every pre-existing metric name survives byte-identical (pinned by
// golden tests in the instrumented packages).
//
// Histograms use fixed upper bounds chosen at registration —
// LatencyBuckets covers 1µs..8.4s in factor-2 steps — with one atomic
// counter per bucket and a CAS-maintained float sum, so Observe is a
// bounded scan over ~24 bounds plus three atomic ops: no locks, no
// allocation, safe under any concurrency. Scrapers derive p50/p95/p99
// from the cumulative `_bucket` series exactly as they would from any
// Prometheus histogram.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ContentType is the Prometheus text exposition content type served by
// Handler, matching what the hand-rolled writers always sent.
const ContentType = "text/plain; version=0.0.4"

// LatencyBuckets returns the standard latency bucket bounds, in seconds:
// factor-2 exponential from 1µs to ~8.4s (24 buckets). One scheme for
// every duration histogram keeps cross-metric comparisons honest and the
// per-observe scan short.
func LatencyBuckets() []float64 {
	bounds := make([]float64, 24)
	b := 1e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// metric is one registered family: it renders its HELP/TYPE header and
// samples into the exposition page.
type metric interface {
	metricName() string
	write(b *strings.Builder)
}

// Registry holds metric families in registration order and renders the
// Prometheus text exposition page. Registration happens at construction
// time (and panics on a duplicate name — a programming error); reads and
// hot-path updates are lock-free thereafter.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := m.metricName()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if err := checkName(name); err != nil {
		panic(fmt.Sprintf("obs: bad metric name %q: %v", name, err))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// checkName enforces the Prometheus metric-name grammar.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("byte %d", i)
		}
	}
	return nil
}

// WriteTo renders the full exposition page.
func (r *Registry) WriteTo(b *strings.Builder) {
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		m.write(b)
	}
}

// Render returns the exposition page as a string.
func (r *Registry) Render() string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}

// Handler serves the exposition page.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		fmt.Fprint(w, r.Render())
	})
}

// desc is the shared name/help/type header.
type desc struct {
	name string
	help string
	typ  string // counter, gauge, histogram
}

func (d desc) metricName() string { return d.name }

func (d desc) writeHeader(b *strings.Builder) {
	b.WriteString("# HELP ")
	b.WriteString(d.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(d.help))
	b.WriteString("\n# TYPE ")
	b.WriteString(d.name)
	b.WriteByte(' ')
	b.WriteString(d.typ)
	b.WriteByte('\n')
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// appendValue formats a sample value: integers render without a decimal
// point or exponent (so counters keep the exact `%d` output the
// hand-rolled writers produced), everything else as shortest float.
func appendValue(b *strings.Builder, v float64) {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		b.WriteString(strconv.FormatInt(int64(v), 10))
		return
	}
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	appendValue(b, v)
	b.WriteByte('\n')
}

// Counter is a monotone counter with an allocation-free hot path.
type Counter struct {
	desc
	v atomic.Uint64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{desc: desc{name: name, help: help, typ: "counter"}}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(b *strings.Builder) {
	c.writeHeader(b)
	writeSample(b, c.name, "", float64(c.v.Load()))
}

// funcMetric bridges an existing atomic (or any cheap snapshot) into the
// page: the closure runs at scrape time, so instrumented packages keep
// their counters exactly where they were.
type funcMetric struct {
	desc
	fn func() float64
}

func (m *funcMetric) write(b *strings.Builder) {
	m.writeHeader(b)
	writeSample(b, m.name, "", m.fn())
}

// CounterFunc registers a counter whose value is read at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{desc: desc{name: name, help: help, typ: "counter"}, fn: fn})
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{desc: desc{name: name, help: help, typ: "gauge"}, fn: fn})
}

// labeledFunc is a family of labeled series enumerated at scrape time:
// the collect callback emits each series' rendered label set (e.g.
// `sensor="7"`) and value, in whatever order the caller produces them.
type labeledFunc struct {
	desc
	collect func(emit func(labels string, v float64))
}

func (m *labeledFunc) write(b *strings.Builder) {
	m.writeHeader(b)
	m.collect(func(labels string, v float64) {
		writeSample(b, m.name, labels, v)
	})
}

// LabeledCounterFunc registers a counter family whose labeled series are
// enumerated at scrape time.
func (r *Registry) LabeledCounterFunc(name, help string, collect func(emit func(labels string, v float64))) {
	r.register(&labeledFunc{desc: desc{name: name, help: help, typ: "counter"}, collect: collect})
}

// LabeledGaugeFunc registers a gauge family whose labeled series are
// enumerated at scrape time.
func (r *Registry) LabeledGaugeFunc(name, help string, collect func(emit func(labels string, v float64))) {
	r.register(&labeledFunc{desc: desc{name: name, help: help, typ: "gauge"}, collect: collect})
}

// Label renders one label pair the way the hand-rolled writers did
// (Go-quoted value), for use with the labeled families.
func Label(key, value string) string {
	return key + "=" + strconv.Quote(value)
}

// Histogram is a fixed-bucket histogram. Observe is lock-free and
// allocation-free: a bounded scan over the bucket bounds, three atomic
// updates. Exposition renders cumulative `_bucket` series (including
// +Inf), `_sum` and `_count`, Prometheus-style.
type Histogram struct {
	desc
	bounds []float64 // ascending upper bounds; +Inf implied after
	les    []string  // pre-rendered le label values, len(bounds)
	labels string    // extra rendered labels ("" or `mode="compact"`), for vec children

	counts []atomic.Uint64 // per-bucket (non-cumulative); last entry is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(d desc, bounds []float64, labels string) *Histogram {
	h := &Histogram{
		desc:   d,
		bounds: append([]float64(nil), bounds...),
		les:    make([]string, len(bounds)),
		labels: labels,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	for i, b := range h.bounds {
		if i > 0 && b <= h.bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", d.name))
		}
		h.les[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	return h
}

// Histogram registers and returns a new histogram with the given upper
// bounds (seconds for latency metrics; see LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(desc{name: name, help: help, typ: "histogram"}, bounds, "")
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// StoreTiming registers a daemon's three WAL duration histograms —
// prefix_wal_{append,fsync,compact}_seconds, their help naming the log
// (wal) and its snapshot (snapshot) — and returns the observer a store's
// SetTiming hook takes: op is "append", "fsync" or "compact".
func (r *Registry) StoreTiming(prefix, wal, snapshot string) func(op string, d time.Duration) {
	b := LatencyBuckets()
	appendDur := r.Histogram(prefix+"_wal_append_seconds", wal+" write+flush duration per append batch.", b)
	fsyncDur := r.Histogram(prefix+"_wal_fsync_seconds", "Duration of one fsync (WAL, snapshot, or directory).", b)
	compactDur := r.Histogram(prefix+"_wal_compact_seconds", "Duration of one whole "+snapshot+" rewrite.", b)
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

func (h *Histogram) write(b *strings.Builder) {
	h.writeHeader(b)
	h.writeSeries(b)
}

func (h *Histogram) writeSeries(b *strings.Builder) {
	sep := ""
	if h.labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(b, h.name+"_bucket", h.labels+sep+`le="`+h.les[i]+`"`, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(b, h.name+"_bucket", h.labels+sep+`le="+Inf"`, float64(cum))
	writeSample(b, h.name+"_sum", h.labels, math.Float64frombits(h.sum.Load()))
	writeSample(b, h.name+"_count", h.labels, float64(cum))
}

// HistogramVec is a histogram family partitioned by one label. Children
// are created on first With and render sorted by label value; With on an
// existing child takes a read lock only.
type HistogramVec struct {
	desc
	label  string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*Histogram
}

// HistogramVec registers and returns a histogram family keyed by the
// given label.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	v := &HistogramVec{
		desc:     desc{name: name, help: help, typ: "histogram"},
		label:    label,
		bounds:   bounds,
		children: make(map[string]*Histogram),
	}
	r.register(v)
	return v
}

// With returns the child histogram for the given label value, creating
// it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[value]; h == nil {
		h = newHistogram(v.desc, v.bounds, Label(v.label, value))
		v.children[value] = h
	}
	return h
}

func (v *HistogramVec) write(b *strings.Builder) {
	v.writeHeader(b)
	v.mu.RLock()
	values := make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	children := make([]*Histogram, 0, len(values))
	sort.Strings(values)
	for _, val := range values {
		children = append(children, v.children[val])
	}
	v.mu.RUnlock()
	for _, h := range children {
		h.writeSeries(b)
	}
}
