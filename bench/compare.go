package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of one workload × metric row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// ownBounds are the regression bounds of the metrics only some workloads
// have. BENCHMARK.json wants every end-to-end metric from every workload
// and gives per_layer entries no bound, so these stand there under
// per_layer and get their bound here; compare judges them, on the
// workloads that measure them, exactly as it judges the end-to-end six.
// Counts that repeat bit for bit have bound 0: any move is a verdict. The
// others' bounds are what their spread over runs on one seed allows
// (README, A workload's own metrics).
var ownBounds = map[string]float64{
	"tx_energy_ratio":               0,
	"merge_bytes_per_query_full":    0,
	"merge_bytes_per_query_compact": 0.15,
	"readings_per_s":                0.25,
	"settle_p50_ms":                 0.25,
	"settle_p95_ms":                 0.25,
	"query_compact_p50_ms":          0.15,
	"query_compact_p95_ms":          0.25,
	"query_full_p50_ms":             0.15,
	"query_full_p95_ms":             0.25,
	"recover_s":                     0.25,
}

// bounded returns every metric compare judges: the end-to-end ones with
// the bounds BENCHMARK.json gives them, then the per-layer ones that have
// a bound of their own.
func (c *catalogue) bounded() []metricDef {
	out := append([]metricDef{}, c.EndToEnd...)
	for _, d := range c.PerLayer {
		if b, ok := ownBounds[d.Name]; ok {
			d.Bound = b
			out = append(out, d)
		}
	}
	return out
}

// loadResults reads the untraced results in a result file written by
// `bench run`, or in every *.json file of a directory of them.
func loadResults(path string) ([]*result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rs {
			if !r.Traced { // end-to-end metrics are always taken untraced
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return out, nil
}

// row is one line of the comparison.
type row struct {
	Workload, Metric, Unit string
	A, B                   []float64 // the runs' values on each side
	Bound                  float64
	Verdict                string
}

// judge gives the verdict for B against the base A: unresolved when A's
// own runs spread wider than the bound, else worse or better when the
// medians differ by more than the bound in that direction, else same.
func judge(a, b []float64, bound float64, higherIsBetter bool) string {
	if spread(a) > bound {
		return verdictUnresolved
	}
	base, next := median(a), median(b)
	gain := next - base // positive = better, once the direction is applied
	if !higherIsBetter {
		gain = -gain
	}
	switch limit := bound * math.Abs(base); {
	case gain < -limit:
		return verdictWorse
	case gain > limit:
		return verdictBetter
	default:
		return verdictSame
	}
}

// compareResults builds one row per workload × bounded metric present on
// both sides, in the catalogue's order, and reports whether any workload's
// failed share rose.
func compareResults(cat *catalogue, a, b []*result) (rows []row, failedRose []string) {
	values := func(rs []*result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, v)
			}
		}
		return out
	}
	failedShare := func(rs []*result, workload string) float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload == workload && r.Attempted > 0 {
				out = append(out, float64(r.Failed)/float64(r.Attempted))
			}
		}
		return median(out)
	}
	for _, w := range cat.Workloads {
		for _, m := range cat.bounded() {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows = append(rows, row{
				Workload: w.Name, Metric: m.Name, Unit: m.Unit, A: va, B: vb, Bound: m.Bound,
				Verdict: judge(va, vb, m.Bound, m.Better == "higher"),
			})
		}
		if failedShare(b, w.Name) > failedShare(a, w.Name) {
			failedRose = append(failedRose, w.Name)
		}
	}
	return rows, failedRose
}

// compareMain prints the table and exits nonzero on any worse row or a
// higher failed share.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A B   (result files, or directories of them; A is the base)")
		return 2
	}
	cat, err := loadCatalogue("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil {
		var b []*result
		if b, err = loadResults(args[1]); err == nil {
			rows, failedRose := compareResults(cat, a, b)
			return printComparison(rows, failedRose)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func printComparison(rows []row, failedRose []string) int {
	side := func(v []float64) string {
		q1, q2, q3 := quartiles(v)
		return fmt.Sprintf("%11.5g [%.5g .. %.5g] n=%d", q2, q1, q3, len(v))
	}
	fmt.Printf("%-14s %-30s %-6s %-44s %-44s %-18s %-6s %s\n",
		"workload", "metric", "unit", "A median [q1 .. q3]", "B median [q1 .. q3]", "B/A (base A)", "bound", "verdict")
	status := 0
	for _, r := range rows {
		base := median(r.A)
		ratio := "n/a"
		if base != 0 {
			ratio = fmt.Sprintf("%.4f (%.5g)", median(r.B)/base, base)
		}
		fmt.Printf("%-14s %-30s %-6s %-44s %-44s %-18s %-6.3g %s\n",
			r.Workload, r.Metric, r.Unit, side(r.A), side(r.B), ratio, r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			status = 1
		}
	}
	for _, w := range failedRose {
		fmt.Printf("%-14s failed share rose\n", w)
		status = 1
	}
	return status
}
