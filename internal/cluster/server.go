package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/obs"
	"innet/internal/protocol"
)

// maxShardConns bounds the control connections a shard serves at once;
// a connection accepted past it is closed at once.
const maxShardConns = 64

// ShardServer is the shard-side control plane: a TCP listener that
// bridges shard-control frames into the process's ingest.Service. It is
// what `innetd -shard` runs next to the normal HTTP/UDP front doors, so
// a shard remains a fully functional innetd — the coordinator is an
// additional client, not a replacement interface.
//
// Each connection is served on its own goroutine, one request at a time
// and in order, so a health probe never waits behind another
// connection's snapshot or merge. Every response carries its request's
// kind. A request the shard cannot serve closes its connection, which
// the coordinator sees at once as an error.
type ShardServer struct {
	svc *ingest.Service
	ln  net.Listener
	log *slog.Logger

	mapVersion atomic.Uint64

	// The last snapshot's merge source, keyed by a content fingerprint:
	// sessions over an unchanged window skip the snapshot's index build
	// and ranking batch entirely (the cluster counterpart of the
	// detector's version-keyed supporter cache).
	mergeMu sync.Mutex
	lastSrc *core.MergeSource
	lastFP  uint64

	sessions atomic.Int64 // connections that hold a merge session

	mu    sync.Mutex
	conns map[net.Conn]struct{} // connections being served
	wg    sync.WaitGroup

	ctx    context.Context
	cancel context.CancelFunc
}

// ShardServerConfig parameterizes a ShardServer.
type ShardServerConfig struct {
	// Service is the shard's ingest fleet. Required. It should run with
	// AutoJoin so READINGS for new sensors attach them.
	Service *ingest.Service

	// Addr is the TCP control listen address, e.g. "127.0.0.1:9100".
	// Required; use port 0 to let the kernel pick (see Addr).
	Addr string

	// Logger receives structured control-action events. Nil discards.
	Logger *slog.Logger
}

// NewShardServer binds the control listener. Call Serve to start
// handling connections.
func NewShardServer(cfg ShardServerConfig) (*ShardServer, error) {
	if cfg.Service == nil {
		return nil, errors.New("cluster: ShardServerConfig.Service is required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %q: %w", cfg.Addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &ShardServer{
		svc:    cfg.Service,
		ln:     ln,
		log:    cfg.Logger,
		conns:  make(map[net.Conn]struct{}),
		ctx:    ctx,
		cancel: cancel,
	}, nil
}

// Addr returns the bound control address (useful with port 0).
func (s *ShardServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and closes every connection; a blocked Serve
// returns.
func (s *ShardServer) Close() error {
	s.cancel()
	err := s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
	return err
}

// Serve accepts control connections until Close. It always returns a
// non-nil error, net.ErrClosed after a clean Close; the connections'
// goroutines are waited for before it returns.
func (s *ShardServer) Serve() error {
	defer s.wg.Wait()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		admit := s.ctx.Err() == nil && len(s.conns) < maxShardConns
		if admit {
			s.conns[conn] = struct{}{}
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if !admit {
			conn.Close()
			continue
		}
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// serveConn answers one connection's requests in order until it closes
// or a request fails. The merge session it opens lives as long as it
// does, or until its next round 0.
func (s *ShardServer) serveConn(conn net.Conn) {
	r := bufio.NewReader(conn)
	var sess mergeSession
	defer func() {
		if sess.link != nil {
			s.sessions.Add(-1)
		}
	}()
	for {
		f, err := readFrame(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && s.ctx.Err() == nil {
				s.log.Warn("control stream failed", "from", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		bodies, err := s.handle(f, r, &sess)
		for i := 0; err == nil && i < len(bodies); i++ {
			err = writeFrame(conn, protocol.Frame{
				Kind:  f.Kind,
				Flags: protocol.FlagResponse,
				ReqID: f.ReqID,
				Trace: f.Trace,
				Body:  bodies[i],
			})
		}
		if err != nil {
			if s.ctx.Err() == nil {
				s.log.Warn("handler failed", "kind", f.Kind.String(), "from", conn.RemoteAddr().String(),
					"trace", traceHex(f.Trace), "err", err)
			}
			return
		}
	}
}

// handle serves one request, whose first frame is f, and returns its
// response's frame bodies. A request sent as a run of fragments reads
// the rest of its run from r.
func (s *ShardServer) handle(f protocol.Frame, r io.Reader, sess *mergeSession) ([][]byte, error) {
	if f.Response() {
		return nil, errors.New("a response frame where a request belongs")
	}
	switch f.Kind {
	case protocol.FrameAssign:
		return one(s.handleAssign(f))
	case protocol.FrameEstimate:
		return s.handleEstimate(f)
	case protocol.FrameHealth:
		return one(protocol.HealthBody{
			MapVersion: s.mapVersion.Load(),
			Sensors:    uint16(len(s.svc.Sensors())),
			Sessions:   uint16(s.sessions.Load()),
		}.Encode(), nil)
	case protocol.FrameReadings:
		return one(s.handleReadings(f))
	case protocol.FrameSufficient:
		return s.handleSufficient(f, r, sess)
	}
	return nil, fmt.Errorf("no handler for %v", f.Kind)
}

// one is a one-frame response.
func one(body []byte, err error) ([][]byte, error) { return [][]byte{body}, err }

// handleAssign adopts a shard-map epoch: the owned sensors are
// pre-joined (so a freshly (re)started shard has its fleet up before
// readings land) and the explicitly evicted ones are detached — a moved
// sensor's peer would otherwise never advance its clock again and serve
// expired points into the merge forever. The departed sensors' points
// still held by remaining peers age out of the sliding windows normally
// (§5.3). Eviction only applies when the epoch is newly adopted, so a
// reordered stale ASSIGN neither rolls the version back nor detaches
// anything, and only an adopted epoch is logged.
func (s *ShardServer) handleAssign(f protocol.Frame) ([]byte, error) {
	body, err := protocol.DecodeAssign(f.Body)
	if err != nil {
		return nil, err
	}
	for _, id := range body.Sensors {
		if err := s.svc.Join(id); err != nil && !errors.Is(err, ingest.ErrAlreadyJoined) {
			return nil, fmt.Errorf("join %d: %w", id, err)
		}
	}
	adopted := false
	for cur := s.mapVersion.Load(); !adopted && body.MapVersion > cur; cur = s.mapVersion.Load() {
		adopted = s.mapVersion.CompareAndSwap(cur, body.MapVersion)
	}
	if adopted {
		evicted := 0
		for _, id := range body.Evict {
			if s.svc.Leave(id) == nil { // not-joined is fine: nothing to detach
				evicted++
			}
		}
		s.log.Info("ASSIGN adopted", "map_version", body.MapVersion,
			"slot", body.ShardIndex, "of", body.ShardCount,
			"sensors", len(body.Sensors), "evictions", evicted)
	}
	return protocol.AckBody{Count: s.mapVersion.Load()}.Encode(), nil
}

// readingOf turns a received point back into a reading for the normal
// ingest front door (validation, staleness gate, bounded queues), which
// derives its identity from its birth (ingest.SeqOf) — the ID the sender
// gave the point. trace propagates the frame's trace ID into the
// reading's queue-wait and observe spans.
func readingOf(trace uint64, p core.Point) ingest.Reading {
	return ingest.Reading{
		Sensor: p.ID.Origin,
		At:     p.Birth,
		Values: p.Value,
		Trace:  trace,
	}
}

// handleReadings admits a READINGS batch. A live batch goes through
// Ingest, where latest-wins shedding under burst is the documented
// policy; a FlagTransfer batch is a window copy, which must not lose
// points whatever queue depth the shard runs with: that is Admit.
func (s *ShardServer) handleReadings(f protocol.Frame) ([]byte, error) {
	start := time.Now()
	body, err := protocol.DecodeReadings(f.Body)
	if err != nil {
		return nil, err
	}
	var accepted uint64
	if f.Flags&protocol.FlagTransfer != 0 {
		restore := make([]ingest.Reading, len(body.Points))
		for i, p := range body.Points {
			restore[i] = readingOf(f.Trace, p)
		}
		n, err := s.svc.Admit(s.ctx, restore)
		if err != nil {
			return nil, err
		}
		accepted = uint64(n)
	} else {
		for _, p := range body.Points {
			if s.svc.Ingest(readingOf(f.Trace, p)) == nil {
				accepted++
			}
		}
	}
	s.svc.Traces().Record(obs.Span{
		Trace:  f.Trace,
		Op:     obs.OpReadings,
		Points: int32(accepted),
		Bytes:  int32(len(f.Body)),
		Start:  start,
		Dur:    time.Since(start),
	})
	return protocol.AckBody{Count: accepted}.Encode(), nil
}

// handleEstimate answers with the shard's window union, or one sensor's
// own points when the request names it, as a run of fragments. The
// sensor's own peer holds every point it originated and has not aged
// out (plus the exchanged rest), so one event-loop round trip suffices;
// a sensor this shard never attached answers empty.
func (s *ShardServer) handleEstimate(f protocol.Frame) ([][]byte, error) {
	sensor, err := protocol.DecodeEstimateRequest(f.Body)
	if err != nil {
		return nil, err
	}
	var pts []core.Point
	if sensor == 0 {
		if pts, err = s.svc.Snapshot(s.ctx); err != nil {
			return nil, err
		}
	} else if held, err := s.svc.HoldingsOf(s.ctx, sensor); err == nil {
		for _, p := range held {
			if p.ID.Origin == sensor {
				pts = append(pts, p)
			}
		}
	}
	return splitPoints(pts, func(frag, count uint16, chunk []core.Point) ([]byte, error) {
		return protocol.EstimateBody{Frag: frag, FragCount: count, Points: chunk}.Encode()
	})
}
