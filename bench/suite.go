package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// suiteMain runs every workload of BENCHMARK.json, each in its own child
// process (a re-exec of this binary) so that heap state does not carry
// over and a stall can be killed, and writes the results to one file.
func suiteMain(traced bool, args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 0, "seconds each workload measures for (default: run_seconds of BENCHMARK.json)")
	out := fs.String("out", defaultOut, "directory for the result file, span files and stall dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cat, err := loadCatalogue("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(cat.RunSeconds)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	var results []*result
	failed := false
	for _, w := range cat.Workloads {
		o := options{workload: w.Name, seed: *seed, seconds: *seconds, trace: traced, out: *out}
		res := runChild(self, o)
		printReport(os.Stdout, cat, res)
		results = append(results, res)
		if !res.Correct || res.Failed > 0 {
			failed = true
		}
	}
	kind := "run"
	if traced {
		kind = "trace"
	}
	path := filepath.Join(*out, fmt.Sprintf("%s_%d.json", kind, *seed))
	if err := writeJSON(path, results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("results: %s\n", path)
	if failed {
		return 1
	}
	return 0
}

// wallBudget is how long a workload child may run before the watchdog
// kills it: four times what it was sized for (three set-ups of a few
// seconds each, the measured seconds, the checks; a traced run measures
// once more and replays the layers).
func wallBudget(o options) time.Duration {
	sized := o.seconds + 12
	if o.trace {
		sized += 8
	}
	return time.Duration(4 * sized * float64(time.Second))
}

// watch runs the command under the watchdog. A child that exceeds the
// budget is sent SIGQUIT — the Go runtime answers with every goroutine's
// stack on standard error — and, if that does not end it, killed.
func watch(cmd *exec.Cmd, budget time.Duration) (stderr []byte, stalled bool, err error) {
	var buf bytes.Buffer
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		return nil, false, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(budget):
		stalled = true
		_ = cmd.Process.Signal(syscall.SIGQUIT)
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			err = <-done
		}
	}
	return buf.Bytes(), stalled, err
}

// runChild runs one workload in a child process. A stalled child's
// standard error is kept as the stall dump, and the workload then counts
// as attempted and failed.
func runChild(self string, o options) *result {
	resultPath := filepath.Join(o.out, fmt.Sprintf("child_%s.json", o.workload))
	os.Remove(resultPath)
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", trace, "--out", o.out, "--result", resultPath)
	cmd.Stdout = io.Discard // the parent prints the report from the result file
	killed := func(why string) *result {
		res := newResult(o)
		res.Attempted, res.Failed = 1, 1
		res.fail("%s", why)
		return res
	}
	budget := wallBudget(o)
	stderr, stalled, waitErr := watch(cmd, budget)
	if stalled {
		dump := filepath.Join(o.out, fmt.Sprintf("stall_%s.txt", o.workload))
		_ = os.WriteFile(dump, stderr, 0o644)
		return killed(fmt.Sprintf("killed by the watchdog after %v; goroutine dump in %s", budget, dump))
	}
	os.Stderr.Write(stderr)
	b, err := os.ReadFile(resultPath)
	if err != nil {
		return killed(fmt.Sprintf("no result (%v); child: %v", err, waitErr))
	}
	os.Remove(resultPath)
	res := &result{}
	if err := json.Unmarshal(b, res); err != nil {
		return killed(fmt.Sprintf("unreadable result: %v", err))
	}
	return res
}
