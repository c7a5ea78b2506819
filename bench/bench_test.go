package main

import (
	"bytes"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestDatagramsFollowTheSeed(t *testing.T) {
	render := func(seed uint64, steps, roundsPerStep int) [][]byte {
		return datagrams(scenario(seed, faultyBurst), steps, roundsPerStep)
	}
	a, b := render(7, 30, 1), render(7, 30, 1)
	if len(a) != 30 {
		t.Fatalf("got %d datagrams, want 30", len(a))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("datagram %d differs between two renderings of seed 7", i)
		}
		if n := bytes.Count(a[i], []byte{'\n'}); n != fleetSensors {
			t.Fatalf("datagram %d has %d lines, want %d", i, n, fleetSensors)
		}
	}
	if bytes.Equal(bytes.Join(a, nil), bytes.Join(render(8, 30, 1), nil)) {
		t.Fatal("seeds 7 and 8 rendered the same datagrams")
	}
	if bytes.Equal(bytes.Join(a, nil), bytes.Join(datagrams(scenario(7, quietBurst), 30, 1), nil)) {
		t.Fatal("the quiet and the faulty scenario rendered the same datagrams")
	}
	// A burst datagram is the same readings, regrouped sensor-major.
	burst := render(7, 3, 8)
	if n := bytes.Count(burst[0], []byte{'\n'}); n != 8*fleetSensors {
		t.Fatalf("burst datagram has %d lines, want %d", n, 8*fleetSensors)
	}
	if !bytes.HasPrefix(burst[0], []byte("1 0 ")) || !bytes.Contains(burst[0], []byte("\n1 7000 ")) {
		t.Fatalf("burst datagram does not start with sensor 1's eight readings:\n%s", burst[0][:200])
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median(ten); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}

	// p95 has ten samples beyond it from 200 samples on, p50 from 20.
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{{0.95, 199, false}, {0.95, 200, true}, {0.5, 19, false}, {0.5, 20, true}, {0.99, 1000, true}, {0.99, 999, false}} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}

	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0].
	q1, q2, q3 := quartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{8, 1, 4, 2})
	if q1 != 1.25 || q2 != 3 || q3 != 7 {
		t.Errorf("quartiles(1,2,4,8) = %v %v %v, want 1.25 3 7", q1, q2, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestLedgerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Name: "bench.step", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "ingest.Ingest", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "ingest.Flush", Start: 30, End: 90, Parent: 0},
		// Two appends on concurrent feeders overlap: covered once.
		{ID: 3, Name: "store.AppendReadings", Start: 40, End: 60, Parent: 2},
		{ID: 4, Name: "store.AppendReadings", Start: 50, End: 70, Parent: 2},
	}}
	got := map[string]layerTime{}
	for _, row := range tr.ledger() {
		got[row.Name] = row
	}
	for name, want := range map[string]layerTime{
		"bench.step":           {Count: 1, Total: 100, Self: 20},
		"ingest.Ingest":        {Count: 1, Total: 20, Self: 20},
		"ingest.Flush":         {Count: 1, Total: 60, Self: 30},
		"store.AppendReadings": {Count: 2, Total: 40, Self: 40},
	} {
		want.Name = name
		if got[name] != want {
			t.Errorf("ledger[%s] = %+v, want %+v", name, got[name], want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10, 10.2, 9.9}
	for _, c := range []struct {
		name   string
		a, b   []float64
		bound  float64
		higher bool
		want   string
	}{
		{"slower latency", base, []float64{12, 12.1, 11.9}, 0.1, false, verdictWorse},
		{"faster latency", base, []float64{8, 8.1, 7.9}, 0.1, false, verdictBetter},
		{"inside the bound", base, []float64{10.5, 10.4, 10.6}, 0.1, false, verdictSame},
		{"higher throughput", base, []float64{12, 12.1, 11.9}, 0.1, true, verdictBetter},
		{"lower throughput", base, []float64{8, 8.1, 7.9}, 0.1, true, verdictWorse},
		{"base too noisy to say", []float64{10, 14, 7}, []float64{20, 20, 20}, 0.1, false, verdictUnresolved},
		{"exact metric moved", []float64{1, 1, 1}, []float64{0.99, 0.99, 0.99}, 0.001, true, verdictWorse},
		{"exact metric held", []float64{1, 1, 1}, []float64{1, 1, 1}, 0.001, true, verdictSame},
	} {
		if got := judge(c.a, c.b, c.bound, c.higher); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}

	// A workload's own metrics are judged beside the end-to-end ones: a
	// compact merge that doubles its bytes, or an exact count that moves at
	// all, is worse even when the lumped step time is the same.
	cat := &catalogue{
		EndToEnd: []metricDef{{Name: "step_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
		PerLayer: []metricDef{
			{Name: "merge_bytes_per_query_compact", Unit: "bytes", Better: "lower"},
			{Name: "merge_bytes_per_query_full", Unit: "bytes", Better: "lower"},
			{Name: "cluster.merge_round_p50_ms", Unit: "ms", Better: "lower"}, // no bound: not judged
		},
	}
	cat.Workloads = append(cat.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "cluster_mixed"})
	run := func(step, compact, full float64, failed uint64) *result {
		return &result{Workload: "cluster_mixed", Attempted: 100, Failed: failed, Metrics: map[string]float64{
			"step_p50_ms": step, "merge_bytes_per_query_compact": compact, "merge_bytes_per_query_full": full,
			"cluster.merge_round_p50_ms": step,
		}}
	}
	rows, failedRose := compareResults(cat,
		[]*result{run(10, 2600, 64332, 0), run(10.1, 2610, 64332, 0)},
		[]*result{run(10.2, 5200, 64333, 1), run(10.3, 5210, 64333, 0)})
	got := map[string]string{}
	for _, r := range rows {
		got[r.Metric] = r.Verdict
	}
	want := map[string]string{
		"step_p50_ms": verdictSame, "merge_bytes_per_query_compact": verdictWorse, "merge_bytes_per_query_full": verdictWorse,
	}
	if len(got) != len(want) {
		t.Errorf("rows = %+v, want exactly %v", rows, want)
	}
	for metric, verdict := range want {
		if got[metric] != verdict {
			t.Errorf("%s: got %q, want %s", metric, got[metric], verdict)
		}
	}
	if len(failedRose) != 1 {
		t.Errorf("failedRose = %v, want cluster_mixed", failedRose)
	}
}

func TestTraceOverheadPairs(t *testing.T) {
	seg := func(stepMS ...float64) measured {
		var m measured
		for _, v := range stepMS {
			m.samples = append(m.samples, stepSample{total: time.Duration(v * float64(time.Millisecond))})
		}
		return m
	}
	// Two pairs of untraced and traced steps, one with the traced a tenth
	// slower and one with the untraced slower: the mean is near nothing and
	// the spread straddles zero.
	res := newResult(options{})
	res.putOverhead([]measured{seg(10, 10), seg(13, 13)}, []measured{seg(11, 11), seg(12, 12)})
	const name = "bench.trace_overhead_share"
	if got := res.Metrics[name]; math.Abs(got-(0.1-1.0/13)/2) > 1e-12 {
		t.Errorf("overhead = %v, want the mean of +1/10 and -1/13", got)
	}
	if res.Low[name] >= 0 || res.High[name] <= 0 || res.Samples[name] != 2 {
		t.Errorf("spread [%v .. %v] over %d pairs, want it to straddle zero over 2", res.Low[name], res.High[name], res.Samples[name])
	}
}

// TestSmoke runs every lockstep workload for 20 rounds of set-up and about
// 20 measured steps: every answer exact, nothing failed, counters
// conserved, and every end-to-end metric of BENCHMARK.json measured.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalogue(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range cat.defs() {
		known[d.Name] = true
	}
	for name, w := range stepWorkloads {
		for _, traced := range []bool{false, true} {
			if traced && name != "fleet_wal" && name != "cluster_mixed" {
				continue // between them these two pass through every wrapper
			}
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				o := options{workload: name, seed: 11, seconds: 1, trace: traced, out: t.TempDir(), smoke: 20}
				res, err := runSteps(o, w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				if got := res.Metrics["exact_share"]; got != 1 {
					t.Errorf("exact_share = %v, want 1", got)
				}
				if _, err := cat.driverLine(res); err != nil {
					t.Error(err)
				}
				for metric := range res.Metrics {
					if !known[metric] {
						t.Errorf("metric %s is not in BENCHMARK.json", metric)
					}
				}
			})
		}
	}
}

func TestConservationCatchesALostReading(t *testing.T) {
	res := newResult(options{})
	checkEqual(res, "accepted = observed + dropped", 320, 319)
	if res.Correct || len(res.Notes) != 1 {
		t.Fatalf("a one-reading gap passed: %+v", res)
	}
}

func TestWatchdog(t *testing.T) {
	if got := wallBudget(options{seconds: 10}); got != 88*time.Second {
		t.Errorf("budget = %v, want 4 × (10 s measured + 12 s set-up and checks)", got)
	}
	start := time.Now()
	_, stalled, err := watch(exec.Command("sleep", "30"), 50*time.Millisecond)
	if !stalled || err == nil {
		t.Errorf("a 30 s sleep under a 50 ms budget: stalled=%v err=%v", stalled, err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the watchdog took %v to end the child", took)
	}
	if _, stalled, err := watch(exec.Command("true"), 5*time.Second); stalled || err != nil {
		t.Errorf("a child that ends in time: stalled=%v err=%v", stalled, err)
	}
}
