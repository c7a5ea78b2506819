// Command innetd is the streaming ingestion daemon: a long-running
// process that accepts live sensor observations over HTTP (JSON batches)
// and UDP (line-protocol firehose), runs the in-network outlier detection
// fleet on them with time-based sliding windows, and serves outlier
// estimates, health and metrics over HTTP. See the README's operations
// guide for endpoints, wire formats and a smoke-test transcript.
//
// Usage:
//
//	innetd [-http addr] [-udp addr] [-shard addr]
//	       [-sensors list] [-autojoin] [-ranker nn|knn|kthnn|db] [-k n]
//	       [-eps α] [-n outliers] [-window d] [-hop d] [-queue depth]
//	       [-batch max] [-data-dir dir] [-fsync] [-debug-addr addr]
//	       [-slow-query d] [-log-format text|json] [-trace-file path] [-v]
//
// With -data-dir the daemon's sliding windows are durable: every minted
// reading is appended to a write-ahead log under the directory, startup
// replays the persisted windows before serving (so a restart resumes
// with exact answers over the data it held), and periodic snapshots
// bound the log. Without it — the default — state is purely in-memory,
// exactly as before.
//
// With -debug-addr the daemon serves the pprof suite and Go runtime
// gauges on a separate listener, so the profiler never rides on the API
// port. With -slow-query every GET /v1/outliers slower than the
// threshold is logged with its query string and duration.
//
// Logging is structured (log/slog); -log-format selects text (default)
// or json. In cluster mode the shard echoes coordinator trace IDs and
// records spans — ingest queue waits, batch observes, merge-session
// exchanges, WAL appends — into a bounded flight recorder served at
// /debug/traces?trace=<id>; -trace-file additionally tees every span as
// one JSON line.
//
// Example:
//
//	innetd -http :8080 -udp :9971 -sensors 1-9 -ranker knn -k 2 -n 2 -window 10m
//
// With -shard the daemon additionally serves the cluster control plane
// on the given UDP address, so an innet-coord coordinator can route
// readings to it, hand windows off, and fold its estimate into the
// cluster-wide merge (see the README's cluster operations guide):
//
//	innetd -http :8081 -shard 127.0.0.1:9101 -ranker knn -k 2 -n 2 -window 10m
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"innet/internal/cluster"
	"innet/internal/core"
	"innet/internal/daemon"
	"innet/internal/ingest"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "innetd:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set, separated from flag.Parse so the
// end-to-end test can drive the daemon in-process.
type options struct {
	daemon.Flags
	shardAddr  string
	sensors    string
	autojoin   bool
	hop        int
	queue      int
	batch      int
	maxSensors int
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("innetd", flag.ContinueOnError)
	var o options
	o.Register(fs, nil)
	fs.StringVar(&o.shardAddr, "shard", "", "UDP shard-control listen address for cluster mode (empty disables)")
	fs.StringVar(&o.sensors, "sensors", "", "sensors to attach at startup, e.g. \"1-9\" or \"1,2,5\"")
	fs.BoolVar(&o.autojoin, "autojoin", true, "attach unknown sensors on first contact")
	fs.IntVar(&o.hop, "hop", 0, "hop diameter d for semi-global detection (0 = global)")
	fs.IntVar(&o.queue, "queue", 256, "per-sensor ingest queue depth")
	fs.IntVar(&o.batch, "batch", 64, "max readings coalesced into one batch-observe event")
	fs.IntVar(&o.maxSensors, "max-sensors", 1024, "fleet size cap (joins beyond it are rejected)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, nil
}

// parseSensorList expands "1-9", "1,2,5" or a mix ("1-3,7") into IDs.
func parseSensorList(spec string) ([]core.NodeID, error) {
	if spec == "" {
		return nil, nil
	}
	var out []core.NodeID
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		lo, hi, found := strings.Cut(part, "-")
		from, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad sensor %q", part)
		}
		to := from
		if found {
			if to, err = strconv.ParseUint(strings.TrimSpace(hi), 10, 16); err != nil || to < from {
				return nil, fmt.Errorf("bad sensor range %q", part)
			}
		}
		for id := from; id <= to; id++ {
			out = append(out, core.NodeID(id))
		}
	}
	return out, nil
}

// newDaemon builds the fleet, attaches the initial sensors, replays the
// store, and binds every listener (but serves nothing yet; call Serve).
func newDaemon(o options, logger *slog.Logger) (*daemon.Shell, error) {
	det, err := o.Detector()
	if err != nil {
		return nil, err
	}
	det.HopLimit = o.hop
	initial, err := parseSensorList(o.sensors)
	if err != nil {
		return nil, err
	}
	return daemon.Open(o.Flags, logger, func(sh *daemon.Shell) error {
		svc, err := ingest.New(ingest.Config{
			Detector:   det,
			QueueDepth: o.queue,
			MaxBatch:   o.batch,
			AutoJoin:   o.autojoin,
			MaxSensors: o.maxSensors,
			SlowQuery:  o.SlowQuery,
			Logger:     logger,
			Store:      sh.Store(),
			TraceSink:  sh.TraceSink(),
		})
		if err != nil {
			return err
		}
		sh.Defer(func(context.Context) error { return svc.Close() })
		for _, id := range initial {
			if err := svc.Join(id); err != nil {
				return err
			}
		}
		if o.DataDir != "" {
			// Replay the persisted windows before any listener binds, so the
			// first request already sees the pre-restart answers.
			warmCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			restored, err := svc.Warm(warmCtx)
			cancel()
			if err != nil {
				return fmt.Errorf("warm replay from %s: %w", o.DataDir, err)
			}
			if restored > 0 {
				logger.Info("replayed records", "records", restored, "dir", o.DataDir)
			}
		}
		if err := sh.Listen(svc.Handler(), svc.ServeUDP); err != nil {
			return err
		}
		if o.shardAddr != "" {
			srv, err := cluster.NewShardServer(cluster.ShardServerConfig{
				Service: svc,
				Addr:    o.shardAddr,
				Logger:  logger,
			})
			if err != nil {
				return err
			}
			sh.Add("shard", srv.Addr(), srv.Serve, srv.Close)
		}
		// Deferred last, so it runs first and only on a clean start:
		// compact while the fleet is still up, so the snapshot holds
		// exactly the final windows and identity floors and the next start
		// replays a minimal, duplicate-free log.
		sh.Defer(svc.CompactStore)
		return nil
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
