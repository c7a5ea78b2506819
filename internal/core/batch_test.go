package core

import (
	"bytes"
	"testing"
	"time"
)

// encodeState serializes the parts of a detector that the batch-observe
// equivalence claims cover — holdings, own points, estimate, clock and
// sequence counter — into one byte string, so "byte-identical" is checked
// literally through the wire codec rather than by structural comparison.
func encodeState(t *testing.T, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, group := range []struct {
		to  NodeID
		pts []Point
	}{
		{0, d.Holdings().Points()},
		{1, d.OwnPoints().Points()},
		{2, d.Estimate()},
	} {
		b, err := EncodeOutbound(&Outbound{
			From:   d.Node(),
			Groups: []Group{{To: group.to, Points: group.pts}},
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	buf.WriteString(d.Now().String())
	buf.WriteByte(byte(d.nextSeq))
	return buf.Bytes()
}

func batchDetector(t *testing.T, window time.Duration, neighbors ...NodeID) *Detector {
	t.Helper()
	d, err := NewDetector(Config{
		Node:   1,
		Ranker: KNN{K: 2},
		N:      2,
		Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range neighbors {
		d.AddNeighbor(j)
	}
	return d
}

// TestStepObserveBatchMatchesSingles is the batch-observe fast-path
// contract: a burst fed through one StepObserveBatch call leaves the
// detector in a byte-identical state to an expiry-only event followed by
// the same readings fed one call at a time, while spending one event (one
// ranking pass) instead of N. A burst that reaches back past the window
// at now adds only the readings inside it, in both paths: readings at
// minutes 8–23 with a 10-minute window at minute 23 leave 11 points.
func TestStepObserveBatchMatchesSingles(t *testing.T) {
	burst := []Observation{
		{Birth: 10 * time.Second, Value: []float64{20.1}},
		{Birth: 11 * time.Second, Value: []float64{19.8}},
		{Birth: 9 * time.Second, Value: []float64{20.4}}, // out of order within the burst
		{Birth: 12 * time.Second, Value: []float64{55.3}},
		{Birth: 12 * time.Second, Value: []float64{20.0}},
	}
	var late []Observation
	for m := 8; m <= 23; m++ {
		late = append(late, Observation{Birth: time.Duration(m) * time.Minute, Value: []float64{20 + float64(m%3)}})
	}

	for _, tc := range []struct {
		name      string
		window    time.Duration
		now       time.Duration
		burst     []Observation
		added     int
		neighbors []NodeID
	}{
		{"isolated", 2 * time.Minute, 13 * time.Second, burst, len(burst), nil},
		{"with-neighbors", 2 * time.Minute, 13 * time.Second, burst, len(burst), []NodeID{2, 3}},
		{"past-the-window", 10 * time.Minute, 23 * time.Minute, late, 11, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batched := batchDetector(t, tc.window, tc.neighbors...)
			pts, _ := batched.StepObserveBatch(tc.now, tc.burst)
			if len(pts) != tc.added {
				t.Fatalf("StepObserveBatch returned %d points, want %d", len(pts), tc.added)
			}

			single := batchDetector(t, tc.window, tc.neighbors...)
			single.StepObserveBatch(tc.now, nil)
			for i := range tc.burst {
				single.StepObserveBatch(tc.now, tc.burst[i:i+1])
			}

			got, want := encodeState(t, batched), encodeState(t, single)
			if !bytes.Equal(got, want) {
				t.Fatalf("batched state differs from single-observe state:\n got %x\nwant %x", got, want)
			}

			// The point of the fast path: one event, one ranking pass.
			base := len(tc.neighbors) // AddNeighbor events
			if ev := batched.Stats().Events - base; ev != 1 {
				t.Errorf("batched path processed %d events, want 1 (advance folded into one batch event)", ev)
			}
			if ev := single.Stats().Events - base; ev != tc.added {
				t.Errorf("single path processed %d events, want %d", ev, tc.added)
			}
		})
	}
}

// TestStepObserveBatchEvicts checks the clock advance inside the batch
// path: readings land and expired window contents leave in one event.
func TestStepObserveBatchEvicts(t *testing.T) {
	d := batchDetector(t, 2*time.Minute)
	d.StepObserveBatch(0, []Observation{{Birth: 0, Value: []float64{20}}})
	// Window is 2 min: advancing to 3 min evicts the first point.
	pts, _ := d.StepObserveBatch(3*time.Minute, []Observation{{Birth: 3 * time.Minute, Value: []float64{21}}})
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	if got := d.Holdings().Len(); got != 1 {
		t.Fatalf("holdings length %d after eviction, want 1", got)
	}
	if d.Stats().Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", d.Stats().Evicted)
	}
}

// TestStepObserveBatchEmpty checks the expiry-only event: an empty batch
// with nothing to evict is a non-event (no reaction, no event counted);
// with something to evict it is one data-change event that moves the
// clock and empties what aged out.
func TestStepObserveBatchEmpty(t *testing.T) {
	d := batchDetector(t, 2*time.Minute)
	if pts, out := d.StepObserveBatch(time.Second, nil); pts != nil || out != nil {
		t.Fatalf("empty batch with nothing evicted produced pts=%v out=%v", pts, out)
	}
	if ev := d.Stats().Events; ev != 0 {
		t.Fatalf("empty batch counted %d events, want 0", ev)
	}
	d.StepObserveBatch(time.Second, []Observation{{Birth: time.Second, Value: []float64{20}}})
	d.StepObserveBatch(10*time.Minute, nil) // evicts the point
	if got := d.Holdings().Len(); got != 0 {
		t.Fatalf("holdings length %d after empty-batch eviction, want 0", got)
	}
	if ev := d.Stats().Events; ev != 2 {
		t.Fatalf("reading then expiry counted %d events, want 2", ev)
	}
	if d.Now() != 10*time.Minute {
		t.Fatalf("clock %v after the expiry, want 10m", d.Now())
	}
}
