// Command innet-coord is the cluster coordinator: the single front door
// of a sharded innetd deployment. It partitions the sensor space across
// detector shard processes (innetd instances started with -shard) via a
// consistent rendezvous shard map, routes HTTP/UDP observation batches
// to the shards owning each sensor — replicating boundary sensors when
// -replicas > 1 — probes shard health, moves the map as shards are
// added, removed, marked down or back up (ASSIGN + window copy), and
// serves the merged cluster-wide outlier view. See the README's "Cluster operations" section.
//
// Usage:
//
//	innet-coord -shards addr1,addr2,... [-http addr] [-udp addr]
//	            [-replicas n] [-query-timeout d] [-health-interval d]
//	            [-ranker nn|knn|kthnn|db] [-k n] [-eps α] [-n outliers]
//	            [-window d] [-debug-addr addr] [-slow-query d]
//	            [-log-format text|json] [-trace-file path] [-v]
//
// The coordinator holds no durable state, so it takes no -data-dir: a
// point's identity is its sensor and data time, which every shard
// derives from the reading itself, and the staleness gate it applies
// before routing is the one the shards apply again. A restarted
// coordinator routes a re-sent reading to the point its shards already
// hold, where it is a repeat. At startup it asks every shard for its
// window to learn which sensors exist, so every membership change still
// moves every sensor's window, and for its map epoch, so its own map
// starts above it.
//
// With -debug-addr the coordinator serves the pprof suite and Go
// runtime gauges on a separate listener. -slow-query logs merged
// queries slower than the threshold (with the query's trace ID), and
// -trace-file appends every recorded span — the records /debug/traces
// serves and /debug/merges groups — to a JSONL file for offline analysis.
//
// Logging is structured (log/slog); -log-format selects text (default)
// or json. Every query mints a trace ID that is stamped into shard
// frames (shards echo it and record their own spans under it) and
// returned in the /v1/outliers response, so one ID follows a query
// across the whole cluster.
//
// Example (matching three `innetd -shard` processes):
//
//	innet-coord -http :8080 -shards 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 \
//	            -replicas 2 -ranker knn -k 2 -n 2 -window 10m
//
// The detector flags must match the shards': the coordinator uses them
// for the estimate merge and the staleness gate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strings"
	"time"

	"innet/internal/cluster"
	"innet/internal/daemon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "innet-coord:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set, separated from flag.Parse so the
// end-to-end test can drive the coordinator in-process.
type options struct {
	daemon.Flags
	shards         string
	replicas       int
	queryTimeout   time.Duration
	healthInterval time.Duration
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("innet-coord", flag.ContinueOnError)
	var o options
	o.Register(fs, map[string]string{
		"ranker":     "ranking function: nn, knn, kthnn or db (must match the shards)",
		"window":     "time-based sliding window (must match the shards)",
		"slow-query": "log merged queries slower than this threshold (0 disables)",
		"trace-file": "append every recorded span to this file as JSONL (empty disables)",
		"v":          "log requests and fleet events",
	})
	fs.StringVar(&o.shards, "shards", "", "comma-separated shard control addresses (required)")
	fs.IntVar(&o.replicas, "replicas", 1, "shards each sensor's readings are replicated to (boundary-sensor replication)")
	fs.DurationVar(&o.queryTimeout, "query-timeout", 2*time.Second, "estimate fan-out deadline")
	fs.DurationVar(&o.healthInterval, "health-interval", 500*time.Millisecond, "shard health probe period")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, nil
}

func parseShardList(spec string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, err := net.ResolveTCPAddr("tcp", part); err != nil {
			return nil, fmt.Errorf("bad shard address %q: %w", part, err)
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, errors.New("-shards requires at least one address")
	}
	return out, nil
}

// newDaemon builds the coordinator and binds the listeners (but serves
// nothing yet; call Serve).
func newDaemon(o options, logger *slog.Logger) (*daemon.Shell, error) {
	det, err := o.Detector()
	if err != nil {
		return nil, err
	}
	shards, err := parseShardList(o.shards)
	if err != nil {
		return nil, err
	}
	return daemon.Open(o.Flags, logger, func(sh *daemon.Shell) error {
		coord, err := cluster.New(cluster.Config{
			Detector:       det,
			Shards:         shards,
			Replicas:       o.replicas,
			QueryTimeout:   o.queryTimeout,
			HealthInterval: o.healthInterval,
			SlowQuery:      o.SlowQuery,
			Logger:         logger,
			TraceSink:      sh.TraceSink(),
		})
		if err != nil {
			return err
		}
		// Closing the coordinator stops its health loop and control socket.
		sh.Defer(func(context.Context) error { return coord.Close() })
		logger.Info("coordinating shards", "shards", coord.ShardMapSnapshot().Len())
		return sh.Listen(coord.Handler(), coord.ServeUDP)
	})
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	return daemon.Run(o.Flags, func(logger *slog.Logger) (*daemon.Shell, error) {
		return newDaemon(o, logger)
	})
}
