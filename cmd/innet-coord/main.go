// Command innet-coord is the cluster coordinator: the single front door
// of a sharded innetd deployment. It partitions the sensor space across
// detector shard processes (innetd instances started with -shard) via a
// consistent rendezvous shard map, routes HTTP/UDP observation batches
// to the shards owning each sensor — replicating boundary sensors when
// -replicas > 1 — probes shard health, resynchronizes rejoining shards
// (ASSIGN + window handoff), and serves the merged cluster-wide outlier
// view. See the README's "Cluster operations" section.
//
// Usage:
//
//	innet-coord -shards addr1,addr2,... [-http addr] [-udp addr]
//	            [-replicas n] [-merge compact|full] [-merge-rounds n]
//	            [-query-timeout d] [-health-interval d]
//	            [-ranker nn|knn|kthnn|db] [-k n] [-eps α] [-n outliers]
//	            [-window d] [-data-dir dir] [-fsync] [-debug-addr addr]
//	            [-slow-query d] [-log-format text|json] [-trace-file path] [-v]
//
// With -data-dir the coordinator persists its per-sensor identity
// counters (next sequence number, newest timestamp) and recovers them
// from its own store at startup instead of depending on shard windows
// surviving the restart — the piece that keeps identity stamping
// continuous through a full-cluster cold restart.
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
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"innet/internal/cluster"
	"innet/internal/core"
	"innet/internal/obs"
	"innet/internal/store"
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
	httpAddr       string
	udpAddr        string
	shards         string
	replicas       int
	merge          string
	mergeRounds    int
	queryTimeout   time.Duration
	healthInterval time.Duration
	ranker         string
	k              int
	eps            float64
	n              int
	window         time.Duration
	dataDir        string
	fsync          bool
	debugAddr      string
	slowQuery      time.Duration
	logFormat      string
	traceFile      string
	verbose        bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("innet-coord", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.httpAddr, "http", ":8080", "HTTP listen address (API + health + metrics)")
	fs.StringVar(&o.udpAddr, "udp", "", "UDP line-protocol listen address (empty disables)")
	fs.StringVar(&o.shards, "shards", "", "comma-separated shard control addresses (required)")
	fs.IntVar(&o.replicas, "replicas", 1, "shards each sensor's readings are replicated to (boundary-sensor replication)")
	fs.StringVar(&o.merge, "merge", cluster.MergeCompact, "estimate merge mode: compact (iterative Algorithm 1, O(estimate+support) payload per round) or full (window snapshots)")
	fs.IntVar(&o.mergeRounds, "merge-rounds", 16, "compact-merge round budget before falling back to the full path")
	fs.DurationVar(&o.queryTimeout, "query-timeout", 2*time.Second, "estimate fan-out deadline")
	fs.DurationVar(&o.healthInterval, "health-interval", 500*time.Millisecond, "shard health probe period")
	fs.StringVar(&o.ranker, "ranker", "knn", "ranking function: nn, knn, kthnn or db (must match the shards)")
	fs.IntVar(&o.k, "k", 2, "neighbor count for knn/kthnn")
	fs.Float64Var(&o.eps, "eps", 2, "neighborhood radius α for the db ranker")
	fs.IntVar(&o.n, "n", 2, "number of outliers to detect")
	fs.DurationVar(&o.window, "window", 10*time.Minute, "time-based sliding window (must match the shards)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durability directory for the identity WAL + snapshots (empty = in-memory only)")
	fs.BoolVar(&o.fsync, "fsync", false, "fsync every WAL append batch (survives machine crashes, not just process crashes)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "debug listen address for pprof + runtime metrics (empty disables)")
	fs.DurationVar(&o.slowQuery, "slow-query", 0, "log merged queries slower than this threshold (0 disables)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log output format: text or json")
	fs.StringVar(&o.traceFile, "trace-file", "", "append every recorded span to this file as JSONL (empty disables)")
	fs.BoolVar(&o.verbose, "v", false, "log requests and fleet events")
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
		if _, err := net.ResolveUDPAddr("udp", part); err != nil {
			return nil, fmt.Errorf("bad shard address %q: %w", part, err)
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, errors.New("-shards requires at least one address")
	}
	return out, nil
}

// daemon bundles the coordinator and its listeners so tests can reach
// the bound addresses.
type daemon struct {
	coord   *cluster.Coordinator
	st      *store.File // nil without -data-dir; closed last
	traceF  *os.File    // nil without -trace-file; closed after coord
	httpLn  net.Listener
	debugLn net.Listener // nil without -debug-addr
	udpConn net.PacketConn
	log     *slog.Logger
}

// newDaemon builds the coordinator and binds the listeners (but serves
// nothing yet; call serve).
func newDaemon(o options, logger *slog.Logger) (*daemon, error) {
	ranker, err := core.ParseRanker(o.ranker, o.k, o.eps)
	if err != nil {
		return nil, fmt.Errorf("-ranker/-k/-eps: %w", err)
	}
	shards, err := parseShardList(o.shards)
	if err != nil {
		return nil, err
	}
	switch o.merge {
	case cluster.MergeCompact, cluster.MergeFull:
	default:
		return nil, fmt.Errorf("unknown -merge mode %q (want %q or %q)",
			o.merge, cluster.MergeCompact, cluster.MergeFull)
	}
	cfg := cluster.Config{
		Detector: core.Config{
			Ranker: ranker,
			N:      o.n,
			Window: o.window,
		},
		Shards:         shards,
		Replicas:       o.replicas,
		MergeMode:      o.merge,
		MergeRounds:    o.mergeRounds,
		QueryTimeout:   o.queryTimeout,
		HealthInterval: o.healthInterval,
		SlowQuery:      o.slowQuery,
		Logger:         logger,
	}
	var traceF *os.File
	if o.traceFile != "" {
		traceF, err = os.OpenFile(o.traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("open -trace-file: %w", err)
		}
		cfg.TraceSink = traceF
	}
	var st *store.File
	if o.dataDir != "" {
		if st, err = store.Open(store.Config{Dir: o.dataDir, Fsync: o.fsync}); err != nil {
			if traceF != nil {
				traceF.Close()
			}
			return nil, err
		}
		cfg.Store = st
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		if traceF != nil {
			traceF.Close()
		}
		return nil, err
	}
	d := &daemon{coord: coord, st: st, traceF: traceF, log: logger}
	fail := func(err error) (*daemon, error) {
		coord.Close()
		if st != nil {
			st.Close()
		}
		if traceF != nil {
			traceF.Close()
		}
		return nil, err
	}
	if d.httpLn, err = net.Listen("tcp", o.httpAddr); err != nil {
		return fail(err)
	}
	if o.udpAddr != "" {
		if d.udpConn, err = net.ListenPacket("udp", o.udpAddr); err != nil {
			d.httpLn.Close()
			return fail(err)
		}
	}
	if o.debugAddr != "" {
		if d.debugLn, err = net.Listen("tcp", o.debugAddr); err != nil {
			if d.udpConn != nil {
				d.udpConn.Close()
			}
			d.httpLn.Close()
			return fail(err)
		}
	}
	return d, nil
}

// logRequests is the -v middleware: one record per API call.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logger.Debug("request", "method", r.Method, "path", r.URL.Path,
			"elapsed", time.Since(start).Round(time.Microsecond))
	})
}

// serve runs the listeners until ctx is canceled, then shuts down in
// order: stop accepting HTTP, close the UDP socket, close the
// coordinator (health loop and control socket).
func (d *daemon) serve(ctx context.Context, verbose bool) error {
	handler := d.coord.Handler()
	if verbose {
		handler = logRequests(d.log, handler)
	}
	httpSrv := &http.Server{Handler: handler}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(d.httpLn) }()

	// The debug listener is separate from the API listener on purpose:
	// pprof and runtime internals stay off the operator-facing port.
	var debugSrv *http.Server
	debugDone := make(chan error, 1)
	if d.debugLn != nil {
		debugSrv = &http.Server{Handler: obs.DebugMux()}
		go func() { debugDone <- debugSrv.Serve(d.debugLn) }()
	} else {
		debugDone <- nil
	}

	udpDone := make(chan error, 1)
	if d.udpConn != nil {
		go func() { udpDone <- d.coord.ServeUDP(d.udpConn) }()
	} else {
		udpDone <- nil
	}

	d.log.Info("http listening", "addr", d.httpLn.Addr().String())
	if d.debugLn != nil {
		d.log.Info("debug listening (pprof + runtime metrics)", "addr", d.debugLn.Addr().String())
	}
	if d.udpConn != nil {
		d.log.Info("udp firehose listening", "addr", d.udpConn.LocalAddr().String())
	}
	d.log.Info("coordinating shards", "shards", d.coord.ShardMapSnapshot().Len())

	<-ctx.Done()
	d.log.Info("shutting down")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errShutdown := httpSrv.Shutdown(shutdownCtx)
	if err := <-httpDone; err != nil && !errors.Is(err, http.ErrServerClosed) && errShutdown == nil {
		errShutdown = err
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutdownCtx); err != nil && errShutdown == nil {
			errShutdown = err
		}
	}
	if err := <-debugDone; err != nil && !errors.Is(err, http.ErrServerClosed) && errShutdown == nil {
		errShutdown = err
	}
	if d.udpConn != nil {
		d.udpConn.Close()
	}
	if err := <-udpDone; err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, cluster.ErrClosed) && errShutdown == nil {
		errShutdown = err
	}
	if err := d.coord.Close(); err != nil && errShutdown == nil {
		errShutdown = err
	}
	if d.traceF != nil {
		// After coord.Close: no merge can record into the sink anymore.
		if err := d.traceF.Close(); err != nil && errShutdown == nil {
			errShutdown = err
		}
	}
	if d.st != nil {
		if err := d.st.Close(); err != nil && errShutdown == nil {
			errShutdown = err
		}
	}
	d.log.Info("bye")
	return errShutdown
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, o.logFormat, o.verbose)
	if err != nil {
		return err
	}
	d, err := newDaemon(o, logger)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return d.serve(ctx, o.verbose)
}
