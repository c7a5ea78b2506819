// Command bench is the repository's benchmark: seven workloads that build the
// system in one process from the packages' exported APIs, drive it from one
// goroutine in lockstep, check every answer against baseline.Compute, and
// print every metric BENCHMARK.json names.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (the driver's contract)
//	go run ./bench run     [-seed N] [-seconds S] [-out DIR]       every workload, each in a child process
//	go run ./bench trace   [-seed N] [-seconds S] [-out DIR]       the same, traced, with span files and layer replays
//	go run ./bench compare A.json B.json                           verdict per workload × metric that has a bound
//
// See README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// defaultOut is where span files, stall dumps and the WAL's temp
// directory go unless -out says otherwise; it is inside the checkout and
// ignored by git.
const defaultOut = ".bench_build/out"

func main() {
	// Two cores is what the sandbox has; pinning it keeps a bigger box
	// from measuring a different schedule.
	runtime.GOMAXPROCS(2)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run", "trace":
			os.Exit(suiteMain(os.Args[1] == "trace", os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(workloadMain(os.Args[1:]))
}

// workloadMain runs one workload in this process and prints the report
// and, as the last line of standard output, the driver's JSON object.
func workloadMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	var resultPath string
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", defaultOut, "directory for span files and temporary stores")
	fs.StringVar(&resultPath, "result", "", "also write the full result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	cat, err := loadCatalogue("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if o.seconds <= 0 || !cat.hasWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "bench: want --workload (one of %v) and a positive --seconds\n", cat.workloadNames())
		return 2
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	printReport(os.Stdout, cat, res)
	if resultPath != "" {
		if err := writeJSON(resultPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := cat.driverLine(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	if !res.Correct || res.Failed > 0 {
		for _, n := range res.Notes {
			fmt.Fprintln(os.Stderr, "bench:", n)
		}
		return 1
	}
	return 0
}

// runWorkload dispatches on the workload name.
func runWorkload(o options) (*result, error) {
	var res *result
	var err error
	if w, ok := stepWorkloads[o.workload]; ok {
		res, err = runSteps(o, w)
	} else if o.workload == "sim_global" {
		res, err = runSim(o)
	} else {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := replayLayers(res, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// catalogue is BENCHMARK.json: the one place metric names, units and
// bounds are written down. The program reads it rather than repeat it.
type catalogue struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalogue(path string) (*catalogue, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the checkout: %w", err)
	}
	cat := &catalogue{}
	if err := json.Unmarshal(b, cat); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cat, nil
}

func (c *catalogue) workloadNames() []string {
	var out []string
	for _, w := range c.Workloads {
		out = append(out, w.Name)
	}
	return out
}

func (c *catalogue) hasWorkload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// defs returns every metric, end-to-end first.
func (c *catalogue) defs() []metricDef {
	return append(append([]metricDef{}, c.EndToEnd...), c.PerLayer...)
}

// driverLine renders the one JSON object the acceptance driver reads:
// every end-to-end metric untraced, every per-layer metric traced. A
// per-layer metric of a layer the workload does not run reads 0; an
// end-to-end metric that is missing is an error.
func (c *catalogue) driverLine(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	defs := c.EndToEnd
	if res.Traced {
		defs = c.PerLayer
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !res.Traced {
			return "", fmt.Errorf("%s did not measure the end-to-end metric %s", res.Workload, d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	if out.Attempted == 0 {
		return "", errors.New("nothing was attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// printReport prints every measured metric by name and unit, with the
// sample count behind it and the extremes across segments.
func printReport(w *os.File, cat *catalogue, res *result) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Traced, res.Correct, res.Attempted, res.Failed)
	// End-to-end metrics first, in the catalogue's order, then the rest by
	// name.
	units := map[string]string{}
	var ordered, rest []string
	for i, d := range cat.defs() {
		units[d.Name] = d.Unit
		if _, ok := res.Metrics[d.Name]; !ok {
			continue
		}
		if i < len(cat.EndToEnd) {
			ordered = append(ordered, d.Name)
		} else {
			rest = append(rest, d.Name)
		}
	}
	sort.Strings(rest)
	for _, name := range append(ordered, rest...) {
		line := fmt.Sprintf("  %-38s %14.6g %-10s", name, res.Metrics[name], units[name])
		if n, ok := res.Samples[name]; ok {
			line += fmt.Sprintf(" n=%-7d", n)
			if strings.Contains(name, "_p95_") && !supported(0.95, n) {
				line += " (fewer than ten samples beyond)"
			}
		}
		if lo, ok := res.Low[name]; ok {
			line += fmt.Sprintf(" [%.6g .. %.6g]", lo, res.High[name])
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range res.Remarks {
		fmt.Fprintln(w, "  #", n)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  !", n)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
