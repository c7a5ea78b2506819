package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
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

// mergeSession is one coordinator merge exchange in flight: the link
// over the window snapshot frozen at session start, and the per-round
// reply cache that makes retried SUFFICIENT queries idempotent.
type mergeSession struct {
	mu      sync.Mutex
	link    *core.MergeLink
	rounds  map[uint16][]core.Point
	touched time.Time
}

// mergeSessionTTL evicts sessions whose coordinator went silent — a
// crashed query must not pin snapshots forever.
const mergeSessionTTL = time.Minute

// maxMergeSessions caps concurrent compact-merge sessions; beyond it the
// least-recently-touched session is evicted (its coordinator falls back
// to the full-window path).
const maxMergeSessions = 8

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
			s.finish(f, from, s.respond(from, f, body.Encode()))
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

// sessionCount reports live merge-session cache occupancy.
func (s *ShardServer) sessionCount() int {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	return len(s.sessions)
}

// respond answers req with one frame, echoing its kind, reqID and trace
// ID.
func (s *ShardServer) respond(to *net.UDPAddr, req protocol.Frame, body []byte) error {
	frame := protocol.EncodeFrame(protocol.Frame{
		Kind:  req.Kind,
		Flags: protocol.FlagResponse,
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
		if err := s.respond(to, req, buf); err != nil {
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
// anything.
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
	for {
		cur := s.mapVersion.Load()
		if body.MapVersion <= cur {
			break
		}
		if s.mapVersion.CompareAndSwap(cur, body.MapVersion) {
			adopted = true
			break
		}
	}
	if adopted {
		for _, id := range body.Evict {
			_ = s.svc.Leave(id) // not-joined is fine: nothing to detach
		}
	}
	s.log.Info("ASSIGN adopted", "map_version", body.MapVersion,
		"slot", body.ShardIndex, "of", body.ShardCount,
		"sensors", len(body.Sensors), "evictions", len(body.Evict))
	return s.respond(from, f, protocol.AckBody{Count: s.mapVersion.Load()}.Encode())
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
	return s.respond(from, f, protocol.AckBody{Count: accepted}.Encode())
}

// fingerprintPoints hashes a window snapshot's content (IDs and birth
// stamps; values are determined by identity) so merge sessions can tell
// an unchanged window from a changed one without comparing point lists.
func fingerprintPoints(pts []core.Point) uint64 {
	h := fnv.New64a()
	var buf [14]byte
	for _, p := range pts {
		binary.BigEndian.PutUint16(buf[0:], uint16(p.ID.Origin))
		binary.BigEndian.PutUint32(buf[2:], p.ID.Seq)
		binary.BigEndian.PutUint64(buf[6:], uint64(p.Birth))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// mergeSession returns the session with the given ID, creating it — over
// a freshly frozen window snapshot — only when create is set (a round-0
// SUFFICIENT, the exchange's opening move). Any other frame naming an
// unknown session returns nil: the session was evicted or the shard
// restarted, and transparently recreating it with an empty ledger would
// desynchronize the two ends' ledgers — the coordinator would withhold
// candidates it believes delivered, the shard's fixed point would never
// refute them, and a quiescent-but-wrong answer could be served as
// exact. The caller turns nil into a FlagUnknownSession refusal, which
// drives the coordinator to the full-window fallback.
//
// The snapshot's merge source (spatial index, ranking batch, Eq. (2)
// seed) is reused across sessions while the window fingerprint is
// unchanged, so repeated queries over a quiet window skip straight to
// the fixed point; once the window changes, the new source is ranked
// from the estimate of the one it replaces.
func (s *ShardServer) mergeSession(id uint64, create bool, trace uint64) (*mergeSession, error) {
	s.mergeMu.Lock()
	if sess := s.sessions[id]; sess != nil {
		sess.touched = time.Now()
		s.mergeMu.Unlock()
		return sess, nil
	}
	s.mergeMu.Unlock()
	if !create {
		return nil, nil
	}

	// Snapshot outside the lock: it round-trips every sensor's event
	// loop and must not stall concurrent merge frames.
	createStart := time.Now()
	snap, err := s.svc.Snapshot(s.ctx)
	if err != nil {
		return nil, err
	}
	fp := fingerprintPoints(snap)

	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	if sess := s.sessions[id]; sess != nil {
		return sess, nil // lost the creation race; use the winner's snapshot
	}
	hit := true // Hit: the cached merge source covered this snapshot
	src := s.lastSrc
	switch {
	case src == nil:
		hit = false
		src = core.NewMergeSource(s.svc.DetectorConfig().Ranker, s.svc.DetectorConfig().N, snap)
	case s.lastFP != fp || src.Len() != len(snap):
		hit = false
		src = src.Rebase(snap) // the window moved on: rank from its last estimate
	}
	s.lastSrc, s.lastFP = src, fp
	s.svc.Traces().Record(obs.Span{
		Trace:  trace,
		Op:     obs.OpSessionCreate,
		Points: int32(len(snap)),
		Hit:    hit,
		Start:  createStart,
		Dur:    time.Since(createStart),
	})
	// Expire silent sessions, then evict the least-recently-touched live
	// one if the cap is still reached — whatever its age, so ties on a
	// coarse clock cannot let the map outgrow the cap.
	now := time.Now()
	var victim uint64
	var victimAt time.Time // zero until a live session is seen
	for sid, sess := range s.sessions {
		if now.Sub(sess.touched) > mergeSessionTTL {
			delete(s.sessions, sid)
			continue
		}
		if victimAt.IsZero() || sess.touched.Before(victimAt) {
			victim, victimAt = sid, sess.touched
		}
	}
	if len(s.sessions) >= maxMergeSessions {
		delete(s.sessions, victim)
	}
	sess := &mergeSession{
		link:    src.NewLink(),
		rounds:  make(map[uint16][]core.Point),
		touched: now,
	}
	s.sessions[id] = sess
	return sess, nil
}

// refuseSession answers a frame naming a merge session this shard no
// longer holds; see mergeSession.
func (s *ShardServer) refuseSession(to *net.UDPAddr, req protocol.Frame) error {
	s.svc.Traces().Record(obs.Span{
		Trace: req.Trace,
		ReqID: req.ReqID,
		Op:    obs.OpSessionRefuse,
		Start: time.Now(),
	})
	frame := protocol.EncodeFrame(protocol.Frame{
		Kind:  req.Kind,
		Flags: protocol.FlagResponse | protocol.FlagUnknownSession,
		ReqID: req.ReqID,
		Trace: req.Trace,
	})
	_, err := s.conn.WriteToUDP(frame, to)
	return err
}

// handleSufficient serves one fragment of a compact-merge round. Every
// fragment's points, a share of the coordinator's sufficient delta, go
// into the session's shared ledger and dataset (Algorithm 1 folds
// receipts into P before reacting); redelivery is a no-op. A non-final
// fragment is answered with an empty one-fragment response, the final
// one with the session's Eq. (2) sufficient delta against everything
// exchanged so far, fragmented under the byte budget. The coordinator
// sends a round's fragments in order, each after the previous one is
// answered, so the shard reacts once per round, holding the whole
// coordinator delta. A retried round replays the cached delta instead of
// recomputing, so a lost response frame cannot advance the ledger twice.
func (s *ShardServer) handleSufficient(f protocol.Frame, from *net.UDPAddr) error {
	start := time.Now()
	body, err := protocol.DecodeSufficient(f.Body)
	if err != nil {
		return err
	}
	if body.Frag >= body.FragCount {
		return fmt.Errorf("SUFFICIENT fragment %d of %d", body.Frag, body.FragCount)
	}
	sess, err := s.mergeSession(body.Session, body.Round == 0, f.Trace)
	if err != nil {
		return err
	}
	if sess == nil {
		return s.refuseSession(from, f)
	}
	var delta []core.Point
	replayed := false
	sess.mu.Lock()
	sess.link.Absorb(body.Points)
	if body.Frag == body.FragCount-1 {
		if delta, replayed = sess.rounds[body.Round]; !replayed {
			delta = sess.link.Delta()
			sess.rounds[body.Round] = delta
		}
	}
	sess.mu.Unlock()
	// Hit marks a replay served from the per-round reply cache (a retried
	// request); the reqID-keyed dedupe in the ring keeps the retry from
	// recording a second span either way.
	s.svc.Traces().Record(obs.Span{
		Trace:  f.Trace,
		ReqID:  f.ReqID,
		Op:     obs.OpSufficient,
		Round:  int32(body.Round),
		Points: int32(len(delta)),
		Bytes:  int32(len(f.Body)),
		Hit:    replayed,
		Start:  start,
		Dur:    time.Since(start),
	})
	return s.respondFragments(from, f, delta, func(frag, count uint16, chunk []core.Point) ([]byte, error) {
		return protocol.SufficientBody{Session: body.Session, Round: body.Round, Frag: frag, FragCount: count, Points: chunk}.Encode()
	})
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
