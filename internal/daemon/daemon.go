// Package daemon is the process shell innetd and innet-coord share: the
// flags both take, the resources those flags open (the durable store and
// the span file), the HTTP, debug and UDP listeners, and the order the
// process takes all of it down in. A command keeps only its own flags,
// its engine, and any listener of its own.
//
// Shutdown runs in one fixed order (DESIGN.md § "Daemon shell"):
//
//  1. the listeners, in the order they serve: HTTP (graceful, in-flight
//     requests finish), debug, UDP, then the command's own — each waited
//     for, so no request or datagram reaches the engine after this step;
//  2. whatever the command deferred, last deferred first: a final
//     compaction while the engine is still up, then the engine itself;
//  3. the span file and the store, which the engine wrote to until step 2
//     ended.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
	"innet/internal/store"
)

// Flags are the flags both daemons take, under the same names and
// defaults.
type Flags struct {
	HTTP      string
	UDP       string
	Ranker    string
	K         int
	Eps       float64
	N         int
	Window    time.Duration
	DataDir   string
	Fsync     bool
	DebugAddr string
	SlowQuery time.Duration
	LogFormat string
	TraceFile string
	Verbose   bool
}

// Register adds the shared flags to fs. usage replaces the help text of
// the flags it names, for a daemon whose flag means something narrower
// (the coordinator's -window must match its shards').
func (f *Flags) Register(fs *flag.FlagSet, usage map[string]string) {
	fs.StringVar(&f.HTTP, "http", ":8080", "HTTP listen address (API + health + metrics)")
	fs.StringVar(&f.UDP, "udp", "", "UDP line-protocol listen address (empty disables)")
	fs.StringVar(&f.Ranker, "ranker", "knn", "ranking function: nn, knn, kthnn or db")
	fs.IntVar(&f.K, "k", 2, "neighbor count for knn/kthnn")
	fs.Float64Var(&f.Eps, "eps", 2, "neighborhood radius α for the db ranker")
	fs.IntVar(&f.N, "n", 2, "number of outliers to detect")
	fs.DurationVar(&f.Window, "window", 10*time.Minute, "time-based sliding window (0 keeps points forever)")
	fs.StringVar(&f.DataDir, "data-dir", "", "durability directory for the window WAL + snapshots (empty = in-memory only)")
	fs.BoolVar(&f.Fsync, "fsync", false, "fsync every WAL append batch (survives machine crashes, not just process crashes)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "debug listen address for pprof + runtime metrics (empty disables)")
	fs.DurationVar(&f.SlowQuery, "slow-query", 0, "log outlier queries slower than this threshold (0 disables)")
	fs.StringVar(&f.LogFormat, "log-format", "text", "structured log output format: text or json")
	fs.StringVar(&f.TraceFile, "trace-file", "", "append every recorded span as one JSON line to this file (empty disables)")
	fs.BoolVar(&f.Verbose, "v", false, "log requests and fleet changes")
	for name, help := range usage {
		fs.Lookup(name).Usage = help
	}
}

// Detector returns the detector configuration the flags describe. A bad
// ranker is refused here, before anything is opened or bound, with an
// error naming the flags.
func (f *Flags) Detector() (core.Config, error) {
	ranker, err := core.ParseRanker(f.Ranker, f.K, f.Eps)
	if err != nil {
		return core.Config{}, fmt.Errorf("-ranker/-k/-eps: %w", err)
	}
	return core.Config{Ranker: ranker, N: f.N, Window: f.Window}, nil
}

// Run is a daemon's main after flag parsing: it builds the logger the
// flags ask for, lets open build the shell, and serves until SIGINT or
// SIGTERM.
func Run(f Flags, open func(*slog.Logger) (*Shell, error)) error {
	logger, err := obs.NewLogger(os.Stderr, f.LogFormat, f.Verbose)
	if err != nil {
		return err
	}
	sh, err := open(logger)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return sh.Serve(ctx)
}

// listener is one socket the daemon serves: serve runs until stop makes
// it return. stop also releases a socket that was never served.
type listener struct {
	name  string
	addr  string
	serve func() error
	stop  func(context.Context) error
}

// Shell is one daemon process: its opened resources on a closer stack and
// its listeners in shutdown order.
type Shell struct {
	flags     Flags
	log       *slog.Logger
	store     *store.File // nil without -data-dir
	trace     *os.File    // nil without -trace-file
	closers   []func(context.Context) error
	listeners []listener
}

// Open opens what the shared flags ask for — the store under -data-dir,
// the span file -trace-file names — and hands the shell to build, which
// creates the engine, defers its close and binds the listeners. If
// anything fails, everything already opened or bound is closed again.
func Open(f Flags, logger *slog.Logger, build func(*Shell) error) (_ *Shell, err error) {
	sh := &Shell{flags: f, log: logger}
	defer func() {
		if err != nil {
			sh.shutdown(context.Background(), nil)
		}
	}()
	if f.DataDir != "" {
		if sh.store, err = store.Open(store.Config{Dir: f.DataDir, Fsync: f.Fsync}); err != nil {
			return nil, err
		}
		sh.Defer(func(context.Context) error { return sh.store.Close() })
	}
	if f.TraceFile != "" {
		if sh.trace, err = os.OpenFile(f.TraceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, fmt.Errorf("open -trace-file: %w", err)
		}
		sh.Defer(func(context.Context) error { return sh.trace.Close() })
	}
	if err := build(sh); err != nil {
		return nil, err
	}
	return sh, nil
}

// Store is the engine's durable store: nil (no interface value at all)
// without -data-dir.
func (s *Shell) Store() store.Store {
	if s.store == nil {
		return nil
	}
	return s.store
}

// TraceSink is where the engine tees its spans: nil without -trace-file.
func (s *Shell) TraceSink() io.Writer {
	if s.trace == nil {
		return nil
	}
	return s.trace
}

// Defer pushes a shutdown step onto the closer stack: steps run after
// every listener has stopped, the last deferred first, under the shutdown
// deadline.
func (s *Shell) Defer(close func(context.Context) error) {
	s.closers = append(s.closers, close)
}

// Listen binds the shell's own listeners: -http serving api (wrapped in
// the request logger under -v), -debug-addr serving the pprof suite, and
// -udp handing its socket to serveUDP.
func (s *Shell) Listen(api http.Handler, serveUDP func(net.PacketConn) error) error {
	if s.flags.Verbose {
		api = logRequests(s.log, api)
	}
	if err := s.listenHTTP("http", s.flags.HTTP, api); err != nil {
		return err
	}
	// The debug listener is separate from the API listener on purpose:
	// pprof and runtime internals stay off the operator-facing port.
	if s.flags.DebugAddr != "" {
		if err := s.listenHTTP("debug", s.flags.DebugAddr, obs.DebugMux()); err != nil {
			return err
		}
	}
	if s.flags.UDP != "" {
		conn, err := net.ListenPacket("udp", s.flags.UDP)
		if err != nil {
			return err
		}
		s.Add("udp", conn.LocalAddr().String(), func() error { return serveUDP(conn) }, conn.Close)
	}
	return nil
}

func (s *Shell) listenHTTP(name, addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	s.listeners = append(s.listeners, listener{
		name:  name,
		addr:  ln.Addr().String(),
		serve: func() error { return srv.Serve(ln) },
		stop: func(ctx context.Context) error {
			err := srv.Shutdown(ctx)
			ln.Close() // Shutdown closed it if Serve ran; if not, this does
			return err
		},
	})
	return nil
}

// Add appends a listener of the command's own: serve runs it until stop
// makes it return. It shuts down after the shell's listeners.
func (s *Shell) Add(name, addr string, serve, stop func() error) {
	s.listeners = append(s.listeners, listener{
		name:  name,
		addr:  addr,
		serve: serve,
		stop:  func(context.Context) error { return stop() },
	})
}

// Addr returns the bound address of the named listener ("http", "debug",
// "udp", or one the command added), or "" if there is none.
func (s *Shell) Addr(name string) string {
	for _, l := range s.listeners {
		if l.name == name {
			return l.addr
		}
	}
	return ""
}

// Serve runs every listener until ctx is canceled, then shuts the
// process down in the package's order. It returns the first error any
// step reported, not counting a listener saying it was closed.
func (s *Shell) Serve(ctx context.Context) error {
	done := make([]chan error, len(s.listeners))
	for i, l := range s.listeners {
		done[i] = make(chan error, 1)
		go func() { done[i] <- l.serve() }()
		s.log.Info(l.name+" listening", "addr", l.addr)
	}
	<-ctx.Done()
	s.log.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.shutdown(shutdownCtx, done)
	s.log.Info("bye")
	return err
}

// shutdown stops the listeners in order — waiting for each one's serve to
// return when done holds it — then runs the closer stack.
func (s *Shell) shutdown(ctx context.Context, done []chan error) error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			first = err
		}
	}
	for i, l := range s.listeners {
		keep(l.stop(ctx))
		if done != nil {
			keep(<-done[i])
		}
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		keep(s.closers[i](ctx))
	}
	return first
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
