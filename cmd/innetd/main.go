// Command innetd is the streaming ingestion daemon: a long-running
// process that accepts live sensor observations over HTTP (JSON batches)
// and UDP (line-protocol firehose), runs the in-network outlier detection
// fleet on them with time-based sliding windows, and serves outlier
// estimates, health and metrics over HTTP. See the README's operations
// guide for endpoints, wire formats and a smoke-test transcript.
//
// Usage:
//
//	innetd [-http addr] [-udp addr] [-shard addr] [-merge-sessions n]
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
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"innet/internal/cluster"
	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/obs"
	"innet/internal/store"
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
	httpAddr      string
	udpAddr       string
	shardAddr     string
	mergeSessions int
	sensors       string
	autojoin      bool
	ranker        string
	k             int
	eps           float64
	n             int
	window        time.Duration
	hop           int
	queue         int
	batch         int
	maxSensors    int
	dataDir       string
	fsync         bool
	debugAddr     string
	slowQuery     time.Duration
	logFormat     string
	traceFile     string
	verbose       bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("innetd", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.httpAddr, "http", ":8080", "HTTP listen address (API + health + metrics)")
	fs.StringVar(&o.udpAddr, "udp", "", "UDP line-protocol listen address (empty disables)")
	fs.StringVar(&o.shardAddr, "shard", "", "UDP shard-control listen address for cluster mode (empty disables)")
	fs.IntVar(&o.mergeSessions, "merge-sessions", 8, "concurrent compact-merge sessions kept by the shard control plane")
	fs.StringVar(&o.sensors, "sensors", "", "sensors to attach at startup, e.g. \"1-9\" or \"1,2,5\"")
	fs.BoolVar(&o.autojoin, "autojoin", true, "attach unknown sensors on first contact")
	fs.StringVar(&o.ranker, "ranker", "knn", "ranking function: nn, knn, kthnn or db")
	fs.IntVar(&o.k, "k", 2, "neighbor count for knn/kthnn")
	fs.Float64Var(&o.eps, "eps", 2, "neighborhood radius α for the db ranker")
	fs.IntVar(&o.n, "n", 2, "number of outliers to detect")
	fs.DurationVar(&o.window, "window", 10*time.Minute, "time-based sliding window (0 keeps points forever)")
	fs.IntVar(&o.hop, "hop", 0, "hop diameter d for semi-global detection (0 = global)")
	fs.IntVar(&o.queue, "queue", 256, "per-sensor ingest queue depth")
	fs.IntVar(&o.batch, "batch", 64, "max readings coalesced into one batch-observe event")
	fs.IntVar(&o.maxSensors, "max-sensors", 1024, "fleet size cap (joins beyond it are rejected)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durability directory for the window WAL + snapshots (empty = in-memory only)")
	fs.BoolVar(&o.fsync, "fsync", false, "fsync every WAL append batch (survives machine crashes, not just process crashes)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "debug listen address for pprof + runtime metrics (empty disables)")
	fs.DurationVar(&o.slowQuery, "slow-query", 0, "log outlier queries slower than this threshold (0 disables)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log output format: text or json")
	fs.StringVar(&o.traceFile, "trace-file", "", "append every recorded span as one JSON line to this file (empty disables)")
	fs.BoolVar(&o.verbose, "v", false, "log requests and fleet changes")
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

// daemon bundles the service and its listeners so tests can reach the
// bound addresses.
type daemon struct {
	svc      *ingest.Service
	st       *store.File // nil without -data-dir; closed last
	traceF   *os.File    // nil without -trace-file
	httpLn   net.Listener
	debugLn  net.Listener // nil without -debug-addr
	udpConn  net.PacketConn
	shardSrv *cluster.ShardServer
	log      *slog.Logger
}

// newDaemon builds the service, attaches the initial sensors, and binds
// both listeners (but serves nothing yet; call serve).
func newDaemon(o options, logger *slog.Logger) (*daemon, error) {
	ranker, err := core.ParseRanker(o.ranker, o.k, o.eps)
	if err != nil {
		return nil, fmt.Errorf("-ranker/-k/-eps: %w", err)
	}
	var st *store.File
	if o.dataDir != "" {
		if st, err = store.Open(store.Config{Dir: o.dataDir, Fsync: o.fsync}); err != nil {
			return nil, err
		}
	}
	var traceF *os.File
	if o.traceFile != "" {
		traceF, err = os.OpenFile(o.traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			if st != nil {
				st.Close()
			}
			return nil, fmt.Errorf("open trace file: %w", err)
		}
	}
	cfg := ingest.Config{
		Detector: core.Config{
			Ranker:   ranker,
			N:        o.n,
			Window:   o.window,
			HopLimit: o.hop,
		},
		QueueDepth: o.queue,
		MaxBatch:   o.batch,
		AutoJoin:   o.autojoin,
		MaxSensors: o.maxSensors,
		SlowQuery:  o.slowQuery,
		Logger:     logger,
	}
	if st != nil {
		cfg.Store = st
	}
	if traceF != nil {
		cfg.TraceSink = traceF
	}
	svc, err := ingest.New(cfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		if traceF != nil {
			traceF.Close()
		}
		return nil, err
	}
	fail := func(err error) (*daemon, error) {
		svc.Close()
		if st != nil {
			st.Close()
		}
		if traceF != nil {
			traceF.Close()
		}
		return nil, err
	}
	initial, err := parseSensorList(o.sensors)
	if err != nil {
		return fail(err)
	}
	for _, id := range initial {
		if err := svc.Join(id); err != nil {
			return fail(err)
		}
	}
	if st != nil {
		// Replay the persisted windows before any listener binds, so the
		// first request already sees the pre-restart answers.
		warmCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		restored, err := svc.Warm(warmCtx)
		cancel()
		if err != nil {
			return fail(fmt.Errorf("warm replay from %s: %w", o.dataDir, err))
		}
		if restored > 0 {
			logger.Info("replayed records", "records", restored, "dir", o.dataDir)
		}
	}

	d := &daemon{svc: svc, st: st, traceF: traceF, log: logger}
	if d.httpLn, err = net.Listen("tcp", o.httpAddr); err != nil {
		return fail(err)
	}
	if o.udpAddr != "" {
		if d.udpConn, err = net.ListenPacket("udp", o.udpAddr); err != nil {
			d.httpLn.Close()
			return fail(err)
		}
	}
	if o.shardAddr != "" {
		d.shardSrv, err = cluster.NewShardServer(cluster.ShardServerConfig{
			Service:          svc,
			Addr:             o.shardAddr,
			MaxMergeSessions: o.mergeSessions,
			Logger:           logger,
		})
		if err != nil {
			if d.udpConn != nil {
				d.udpConn.Close()
			}
			d.httpLn.Close()
			return fail(err)
		}
	}
	if o.debugAddr != "" {
		if d.debugLn, err = net.Listen("tcp", o.debugAddr); err != nil {
			if d.shardSrv != nil {
				d.shardSrv.Close()
			}
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

// serve runs both listeners until ctx is canceled, then shuts down in
// order: stop accepting HTTP, close the UDP socket, close the fleet.
func (d *daemon) serve(ctx context.Context, verbose bool) error {
	handler := d.svc.Handler()
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
		go func() { udpDone <- d.svc.ServeUDP(d.udpConn) }()
	} else {
		udpDone <- nil
	}

	shardDone := make(chan error, 1)
	if d.shardSrv != nil {
		go func() { shardDone <- d.shardSrv.Serve() }()
	} else {
		shardDone <- nil
	}

	d.log.Info("http listening", "addr", d.httpLn.Addr().String())
	if d.debugLn != nil {
		d.log.Info("debug listening (pprof + runtime metrics)", "addr", d.debugLn.Addr().String())
	}
	if d.udpConn != nil {
		d.log.Info("udp firehose listening", "addr", d.udpConn.LocalAddr().String())
	}
	if d.shardSrv != nil {
		d.log.Info("shard control listening", "addr", d.shardSrv.Addr())
	}

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
	if err := <-udpDone; err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, ingest.ErrClosed) && errShutdown == nil {
		errShutdown = err
	}
	if d.shardSrv != nil {
		d.shardSrv.Close()
	}
	if err := <-shardDone; err != nil && !errors.Is(err, net.ErrClosed) && errShutdown == nil {
		errShutdown = err
	}
	if d.st != nil {
		// Compact while the fleet is still up: the snapshot then holds
		// exactly the final windows and identity floors, so the next
		// start replays a minimal, duplicate-free log.
		if err := d.svc.CompactStore(shutdownCtx); err != nil && errShutdown == nil {
			errShutdown = err
		}
	}
	if err := d.svc.Close(); err != nil && errShutdown == nil {
		errShutdown = err
	}
	if d.st != nil {
		if err := d.st.Close(); err != nil && errShutdown == nil {
			errShutdown = err
		}
	}
	if d.traceF != nil {
		if err := d.traceF.Close(); err != nil && errShutdown == nil {
			errShutdown = err
		}
	}
	d.log.Info("fleet drained, bye")
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
