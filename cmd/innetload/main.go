// Command innetload is the exactness harness: it fires one JSON
// scenario's seeded synthetic sensor fleet (churn, loss, bursts) at a
// live innetd or innet-coord over the UDP line protocol, freezes
// ingestion at checkpoint boundaries, and checks that every merge mode's
// served answer equals the centralized baseline.Compute over the window
// the target itself holds. It writes the verdicts to
// innetload_<scenario>.json; it measures no timings (bench/ is the
// repo's perf record). See the README's "Exactness under load" section
// and scripts/scenarios/.
//
// Usage:
//
//	innetload -scenario file.json -http URL -udp addr
//	          [-shard-http URL1,URL2,...] [-out dir] [-v]
//
// Example against a two-shard cluster:
//
//	innetload -scenario scripts/scenarios/churnloss.json \
//	          -http http://127.0.0.1:8080 -udp 127.0.0.1:9000 \
//	          -shard-http http://127.0.0.1:8181,http://127.0.0.1:8182
//
// The target is classified automatically (a coordinator's /healthz
// reports shard counts). -shard-http is required for a cluster target:
// the exactness barrier flushes every shard. innetload exits nonzero
// if any exactness checkpoint fails to match the baseline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"innet/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "innetload:", err)
		os.Exit(1)
	}
}

type options struct {
	scenario  string
	httpURL   string
	udpAddr   string
	shardHTTP string
	out       string
	verbose   bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("innetload", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.scenario, "scenario", "", "scenario JSON file (required)")
	fs.StringVar(&o.httpURL, "http", "http://127.0.0.1:8080", "target HTTP base URL (innetd or innet-coord)")
	fs.StringVar(&o.udpAddr, "udp", "127.0.0.1:9000", "target UDP line-protocol address")
	fs.StringVar(&o.shardHTTP, "shard-http", "", "comma-separated shard innetd HTTP base URLs (cluster targets)")
	fs.StringVar(&o.out, "out", ".", "directory the innetload_<scenario>.json artifact is written to")
	fs.BoolVar(&o.verbose, "v", false, "log per-segment progress")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.scenario == "" {
		return o, errors.New("-scenario is required")
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	sc, err := loadgen.Load(o.scenario)
	if err != nil {
		return err
	}

	var shards []string
	if o.shardHTTP != "" {
		for _, s := range strings.Split(o.shardHTTP, ",") {
			if s = strings.TrimSpace(s); s != "" {
				shards = append(shards, s)
			}
		}
	}
	target, err := loadgen.DetectTarget(o.httpURL, o.udpAddr, shards)
	if err != nil {
		return err
	}
	if target.Cluster && len(shards) == 0 {
		return errors.New("target is a cluster: -shard-http is required for the flush barrier")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(string, ...any) {}
	if o.verbose {
		logf = log.New(os.Stderr, "innetload: ", log.LstdFlags).Printf
	}
	logf("scenario %s: %d virtual sensors on %d attached IDs, %.0fs, cluster=%v shards=%d",
		sc.Name, sc.Fleet.Sensors, sc.Fleet.Attached, sc.Traffic.DurationS, target.Cluster, target.Shards)

	runner := &loadgen.Runner{Scenario: sc, Target: target, Logf: logf}
	report, err := runner.Run(ctx)
	if err != nil {
		return err
	}
	path, err := report.Write(o.out)
	if err != nil {
		return err
	}
	fmt.Printf("innetload: %s: %d readings sent in %d datagrams (%d lost, %d down), wrote %s\n",
		sc.Name, report.Fire.Sent, report.Fire.Datagrams, report.Fire.Lost, report.Fire.Down, path)
	for i, cp := range report.Checkpoints {
		fmt.Printf("innetload: checkpoint %d: window=%d match=%v\n", i+1, cp.WindowPoints, cp.Match)
	}
	if !report.CheckpointsOK {
		return errors.New("exactness checkpoint mismatch: served answers diverged from the centralized baseline")
	}
	return nil
}
