package cluster

import (
	"context"
	"errors"
	"fmt"
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

// maxFrameBytes is the point-payload byte budget per control frame:
// outgoing point lists are fragmented to stay under it, comfortably below
// the 65507-byte UDP payload ceiling at any feature dimension the wire
// admits.
const maxFrameBytes = 60000

// chunkByBytes splits a point list into chunks whose encoded size stays
// within the budget (one max-dimension point is ~2 KiB, so every chunk
// holds at least one point). It always returns at least one — possibly
// empty — chunk, so "send every chunk" also answers an empty query.
func chunkByBytes(pts []core.Point, budget int) [][]core.Point {
	chunks := [][]core.Point{nil}
	bytes := 0
	for _, p := range pts {
		size := core.EncodedPointSize(len(p.Value))
		if last := len(chunks) - 1; len(chunks[last]) > 0 && bytes+size > budget {
			chunks = append(chunks, nil)
			bytes = 0
		}
		chunks[len(chunks)-1] = append(chunks[len(chunks)-1], p)
		bytes += size
	}
	return chunks
}

// ShardServer is the shard-side control plane: a UDP listener that
// bridges shard-control frames into the process's ingest.Service. It is
// what `innetd -shard` runs next to the normal HTTP/UDP front doors, so
// a shard remains a fully functional innetd — the coordinator is an
// additional client, not a replacement interface.
//
// All handlers are idempotent, matching the coordinator's retry policy:
// re-ASSIGN re-joins already-joined sensors, re-delivered READINGS points
// carry preassigned identities and deduplicate inside the detectors'
// windows, and queries are pure. Every response carries its request's
// kind.
type ShardServer struct {
	svc  *ingest.Service
	conn *net.UDPConn
	log  *slog.Logger

	mapVersion atomic.Uint64

	// Compact-merge state: live sessions keyed by the wire's session ID
	// (the coordinator sends its query's trace ID), plus the last
	// snapshot's merge source keyed by a content fingerprint — sessions
	// over an unchanged window skip the snapshot's index build and
	// ranking batch entirely (the cluster counterpart of the detector's
	// version-keyed supporter cache).
	mergeMu  sync.Mutex
	sessions map[uint64]*mergeSession
	lastSrc  *core.MergeSource
	lastFP   uint64

	// slots bounds concurrent heavy handlers; see Serve.
	slots chan struct{}
	wg    sync.WaitGroup

	ctx    context.Context
	cancel context.CancelFunc
}

// ShardServerConfig parameterizes a ShardServer.
type ShardServerConfig struct {
	// Service is the shard's ingest fleet. Required. It should run with
	// AutoJoin so READINGS for new sensors attach them.
	Service *ingest.Service

	// Addr is the UDP control listen address, e.g. "127.0.0.1:9100".
	// Required; use port 0 to let the kernel pick (see Addr).
	Addr string

	// Logger receives structured control-action events. Nil discards.
	Logger *slog.Logger
}

// NewShardServer binds the control listener. Call Serve to start
// handling frames.
func NewShardServer(cfg ShardServerConfig) (*ShardServer, error) {
	if cfg.Service == nil {
		return nil, errors.New("cluster: ShardServerConfig.Service is required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	udpAddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: resolve %q: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %q: %w", cfg.Addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &ShardServer{
		svc:      cfg.Service,
		conn:     conn,
		log:      cfg.Logger,
		sessions: make(map[uint64]*mergeSession),
		slots:    make(chan struct{}, 8),
		ctx:      ctx,
		cancel:   cancel,
	}, nil
}

// Addr returns the bound control address (useful with port 0).
func (s *ShardServer) Addr() string { return s.conn.LocalAddr().String() }

// Close stops the listener; a blocked Serve returns.
func (s *ShardServer) Close() error {
	s.cancel()
	return s.conn.Close()
}

// Serve handles control frames until Close. It always returns a non-nil
// error, net.ErrClosed after a clean Close; in-flight handlers are
// waited for before it returns.
//
// HEALTH is answered inline on the read loop — it must never queue
// behind work, or a shard gets marked down precisely because it is busy
// serving a snapshot. Everything else runs on its own goroutine behind
// a small semaphore: handlers only touch the concurrency-safe
// ingest.Service and the socket, and the coordinator's retries cover a
// frame shed because all slots were busy.
func (s *ShardServer) Serve() error {
	defer s.wg.Wait()
	buf := make([]byte, maxCtlDatagram)
	for {
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		if truncatedDatagram(n, len(buf)) {
			s.log.Warn("dropped truncated datagram", "bytes", n, "from", from.String())
			continue // tail lost in the kernel; the peer's retry covers it
		}
		f, err := protocol.DecodeFrame(buf[:n])
		if err != nil || f.Response() {
			continue // not ours / echo: drop
		}
		if f.Kind == protocol.FrameHealth {
			body := protocol.HealthBody{
				MapVersion: s.mapVersion.Load(),
				Sensors:    uint16(len(s.svc.Sensors())),
				Sessions:   uint16(s.sessionCount()),
			}
			s.finish(f, from, s.respond(from, f, 0, body.Encode()))
			continue
		}
		select {
		case s.slots <- struct{}{}:
		default:
			continue // saturated: shed, like a full radio; retries cover it
		}
		body := make([]byte, len(f.Body)) // the read loop reuses buf
		copy(body, f.Body)
		f.Body = body
		s.wg.Add(1)
		go func(f protocol.Frame, from *net.UDPAddr) {
			defer s.wg.Done()
			defer func() { <-s.slots }()
			s.handle(f, from)
		}(f, from)
	}
}

// handle dispatches one request frame and writes its response(s) back to
// the requester. Handler errors are logged, not fatal: the coordinator's
// retry covers transient failures, and a malformed frame must not take
// the control plane down.
func (s *ShardServer) handle(f protocol.Frame, from *net.UDPAddr) {
	var err error
	switch f.Kind {
	case protocol.FrameAssign:
		err = s.handleAssign(f, from)
	case protocol.FrameEstimate:
		err = s.handleEstimate(f, from)
	case protocol.FrameReadings:
		err = s.handleReadings(f, from)
	case protocol.FrameSufficient:
		err = s.handleSufficient(f, from)
	}
	s.finish(f, from, err)
}

// finish logs a handler failure.
func (s *ShardServer) finish(f protocol.Frame, from *net.UDPAddr, err error) {
	if err != nil && s.ctx.Err() == nil {
		s.log.Warn("handler failed", "kind", f.Kind.String(), "from", from.String(),
			"trace", traceHex(f.Trace), "err", err)
	}
}

// respond answers req with one frame, echoing its kind, reqID and trace
// ID; flags are set beside FlagResponse.
func (s *ShardServer) respond(to *net.UDPAddr, req protocol.Frame, flags uint8, body []byte) error {
	frame := protocol.EncodeFrame(protocol.Frame{
		Kind:  req.Kind,
		Flags: protocol.FlagResponse | flags,
		ReqID: req.ReqID,
		Trace: req.Trace,
		Body:  body,
	})
	_, err := s.conn.WriteToUDP(frame, to)
	return err
}

// respondFragments answers req with pts split over as many frames as the
// byte budget requires (at least one, so an empty answer still answers);
// body encodes fragment frag of count.
func (s *ShardServer) respondFragments(to *net.UDPAddr, req protocol.Frame, pts []core.Point,
	body func(frag, count uint16, chunk []core.Point) ([]byte, error)) error {
	chunks := chunkByBytes(pts, maxFrameBytes)
	for i, chunk := range chunks {
		buf, err := body(uint16(i), uint16(len(chunks)), chunk)
		if err != nil {
			return err
		}
		if err := s.respond(to, req, 0, buf); err != nil {
			return err
		}
	}
	return nil
}

// handleAssign adopts a shard-map epoch: the owned sensors are
// pre-joined (so a freshly (re)started shard has its fleet up before
// readings land) and the explicitly evicted ones are detached — a moved
// sensor's peer would otherwise never advance its clock again and serve
// expired points into the merge forever. The departed sensors' points
// still held by remaining peers age out of the sliding windows normally
// (§5.3). Eviction only applies when the epoch is newly adopted, so a
// reordered stale ASSIGN neither rolls the version back nor detaches
// anything, and only an adopted epoch is logged.
func (s *ShardServer) handleAssign(f protocol.Frame, from *net.UDPAddr) error {
	body, err := protocol.DecodeAssign(f.Body)
	if err != nil {
		return err
	}
	for _, id := range body.Sensors {
		if err := s.svc.Join(id); err != nil && !errors.Is(err, ingest.ErrAlreadyJoined) {
			return fmt.Errorf("join %d: %w", id, err)
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
	return s.respond(from, f, 0, protocol.AckBody{Count: s.mapVersion.Load()}.Encode())
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
func (s *ShardServer) handleReadings(f protocol.Frame, from *net.UDPAddr) error {
	start := time.Now()
	body, err := protocol.DecodeReadings(f.Body)
	if err != nil {
		return err
	}
	var accepted uint64
	if f.Flags&protocol.FlagTransfer != 0 {
		restore := make([]ingest.Reading, len(body.Points))
		for i, p := range body.Points {
			restore[i] = readingOf(f.Trace, p)
		}
		n, err := s.svc.Admit(s.ctx, restore)
		if err != nil {
			return err
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
		ReqID:  f.ReqID,
		Op:     obs.OpReadings,
		Points: int32(accepted),
		Bytes:  int32(len(f.Body)),
		Start:  start,
		Dur:    time.Since(start),
	})
	return s.respond(from, f, 0, protocol.AckBody{Count: accepted}.Encode())
}

// handleEstimate streams back the shard's window union, or one sensor's
// own points when the request names it, as however many fragments the
// byte budget requires. The sensor's own peer holds every point it
// originated and has not aged out (plus the exchanged rest), so one
// event-loop round trip suffices; a sensor this shard never attached
// answers empty.
func (s *ShardServer) handleEstimate(f protocol.Frame, from *net.UDPAddr) error {
	sensor, err := protocol.DecodeEstimateRequest(f.Body)
	if err != nil {
		return err
	}
	var pts []core.Point
	if sensor == 0 {
		if pts, err = s.svc.Snapshot(s.ctx); err != nil {
			return err
		}
	} else if held, err := s.svc.HoldingsOf(s.ctx, sensor); err == nil {
		for _, p := range held {
			if p.ID.Origin == sensor {
				pts = append(pts, p)
			}
		}
	}
	return s.respondFragments(from, f, pts, func(frag, count uint16, chunk []core.Point) ([]byte, error) {
		return protocol.EstimateBody{Frag: frag, FragCount: count, Points: chunk}.Encode()
	})
}
