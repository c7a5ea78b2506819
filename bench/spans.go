package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the wrappers in this
// package around the program's public functions. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"` // layer.Function
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span ID, -1 for a root
	Step   int    `json:"step"`   // the driver step that caused it
}

// tracer keeps a run's spans in memory and writes them out when the
// workload ends. A nil tracer records nothing, so the untraced run pays
// one nil check per wrapped call.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	stack []int // open spans of the driver goroutine
	step  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span on the driver goroutine, nested under the innermost
// open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Step: t.step})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// end closes the innermost span of the driver goroutine.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// record adds a finished span measured on another goroutine (the store
// wrapper runs on the feeders); its parent is the step span open on the
// driver goroutine at the time.
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[0]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: s, End: s + int64(d), Parent: parent, Step: t.step})
	t.mu.Unlock()
}

func (t *tracer) nextStep() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.step++
	t.mu.Unlock()
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one row of the ledger: how often a span name occurred and
// the time it covered, in total and net of its children.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// ledger sums total and self time per span name. A span's self time is
// its duration minus the part of it that its child spans cover
// (overlapping children — concurrent feeders — are counted once).
func (t *tracer) ledger() []layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range t.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerTime{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.Total += time.Duration(s.End - s.Start)
		row.Self += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b layerTime) int { return int(b.Total - a.Total) })
	return out
}

// covered returns how much of the parent's interval its children cover.
func covered(parent span, kids []span) int64 {
	slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
	var total int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}
