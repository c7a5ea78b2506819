package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"innet/internal/core"
	"innet/internal/protocol"
)

// maxCtlDatagram sizes the control-plane receive buffers on both ends
// of the wire. A read that fills the buffer exactly is the kernel's
// truncation sentinel — indistinguishable from a larger datagram cut to
// fit — and the frame codec has no body-length field to notice the
// missing tail, so such reads must be dropped before decoding, not
// handed to the codec as if complete. IPv4 caps UDP payloads at 65507
// bytes, just under this buffer, so today the sentinel cannot fire from
// a well-formed peer; the guard is for the day a transport with bigger
// datagrams (IPv6 jumbograms, a proxy) carries the frames.
const maxCtlDatagram = 64 * 1024

// truncatedDatagram reports whether a read of n bytes into a bufLen
// buffer hit the kernel-truncation sentinel.
func truncatedDatagram(n, bufLen int) bool { return n >= bufLen }

// ctlClient is the coordinator's side of the shard-control wire: one UDP
// socket multiplexing request/response exchanges with every shard,
// correlated by the frames' reqID. UDP loses datagrams by design, so
// every exchange is wrapped in bounded retries by the callers; all
// requests are idempotent (ASSIGN re-applies cleanly, READINGS carry
// preassigned identities, queries are pure).
type ctlClient struct {
	conn *net.UDPConn

	nextReq atomic.Uint32

	// truncated counts datagrams dropped by the truncation sentinel;
	// surfaced as Stats.TruncatedFrames. The bounded retries around
	// every exchange re-request a frame lost this way.
	truncated atomic.Uint64

	// onRTT, when set, observes each successful exchange's round trip
	// (send to last response frame) with the request's frame kind. Set
	// once before the first exchange; never mutated after.
	onRTT func(kind protocol.FrameKind, d time.Duration)

	mu      sync.Mutex
	pending map[uint32]chan protocol.Frame
	closed  bool

	readerDone chan struct{}
}

// errClientClosed reports an exchange attempted after Close.
var errClientClosed = errors.New("cluster: control client closed")

func newCtlClient() (*ctlClient, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4zero, Port: 0})
	if err != nil {
		return nil, fmt.Errorf("cluster: bind control socket: %w", err)
	}
	c := &ctlClient{
		conn:       conn,
		pending:    make(map[uint32]chan protocol.Frame),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *ctlClient) readLoop() {
	defer close(c.readerDone)
	buf := make([]byte, maxCtlDatagram)
	for {
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if truncatedDatagram(n, len(buf)) {
			c.truncated.Add(1)
			continue // tail lost in the kernel; retry re-requests it
		}
		f, err := protocol.DecodeFrame(buf[:n])
		if err != nil || !f.Response() {
			continue // stray datagram; drop like a corrupt radio frame
		}
		body := make([]byte, len(f.Body))
		copy(body, f.Body)
		f.Body = body
		c.mu.Lock()
		ch := c.pending[f.ReqID]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- f:
			default: // slow collector: shed, the retry path covers it
			}
		}
	}
}

func (c *ctlClient) close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// ctlRequest describes one shard-control request. A zero reqID is
// minted fresh by exchange; callers that retry a logical operation
// mint the reqID once (newReqID) and reuse it across attempts, so a
// shard sees the retry as the same request — its replay caches and the
// span dedupe both key on it. trace is the query the request belongs to
// (0 for untraced control work).
type ctlRequest struct {
	kind  protocol.FrameKind
	flags uint8
	reqID uint32
	trace uint64
	body  []byte
}

// newReqID mints a request ID for a logical operation that will be
// retried (the reqID must survive the attempts, so exchange's
// per-attempt minting cannot own it).
func (c *ctlClient) newReqID() uint32 { return c.nextReq.Add(1) }

// exchange sends one request frame to addr and feeds response frames
// echoing its reqID and kind to collect until collect reports done or
// ctx expires. A response of another kind is a stray and is dropped.
func (c *ctlClient) exchange(ctx context.Context, addr *net.UDPAddr, req ctlRequest,
	collect func(protocol.Frame) (done bool, err error)) error {
	reqID := req.reqID
	if reqID == 0 {
		reqID = c.nextReq.Add(1)
	}
	ch := make(chan protocol.Frame, 64)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClientClosed
	}
	c.pending[reqID] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
	}()

	frame := protocol.EncodeFrame(protocol.Frame{
		Kind: req.kind, Flags: req.flags, ReqID: reqID, Trace: req.trace, Body: req.body,
	})
	start := time.Now()
	if _, err := c.conn.WriteToUDP(frame, addr); err != nil {
		return fmt.Errorf("cluster: send %v to %s: %w", req.kind, addr, err)
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case f := <-ch:
			if f.Kind != req.kind {
				continue
			}
			done, err := collect(f)
			if err != nil {
				return err
			}
			if done {
				// Only completed exchanges are observed: a timeout says
				// nothing about the wire (the retry wrapper owns failure
				// accounting), while a completed one is a true RTT.
				if c.onRTT != nil {
					c.onRTT(req.kind, time.Since(start))
				}
				return nil
			}
		}
	}
}

// one is a collect helper for single-frame responses.
func one(into *protocol.Frame) func(protocol.Frame) (bool, error) {
	return func(f protocol.Frame) (bool, error) {
		*into = f
		return true, nil
	}
}

// ackCount runs a request answered by one AckBody frame and returns the
// count it acknowledges.
func (c *ctlClient) ackCount(ctx context.Context, addr *net.UDPAddr, req ctlRequest) (uint64, error) {
	var resp protocol.Frame
	if err := c.exchange(ctx, addr, req, one(&resp)); err != nil {
		return 0, err
	}
	ack, err := protocol.DecodeAck(resp.Body)
	return ack.Count, err
}

// assign pushes one shard-map epoch and returns the version the shard
// acknowledged.
func (c *ctlClient) assign(ctx context.Context, addr *net.UDPAddr, body protocol.AssignBody) (uint64, error) {
	buf, err := body.Encode()
	if err != nil {
		return 0, err
	}
	return c.ackCount(ctx, addr, ctlRequest{kind: protocol.FrameAssign, body: buf})
}

// health probes one shard.
func (c *ctlClient) health(ctx context.Context, addr *net.UDPAddr) (protocol.HealthBody, error) {
	var resp protocol.Frame
	if err := c.exchange(ctx, addr, ctlRequest{kind: protocol.FrameHealth}, one(&resp)); err != nil {
		return protocol.HealthBody{}, err
	}
	return protocol.DecodeHealth(resp.Body)
}

// readings sends one batch of identity-stamped points and returns the
// count the shard accepted: a routed ingest batch, or with FlagTransfer
// one chunk of a window copy.
func (c *ctlClient) readings(ctx context.Context, addr *net.UDPAddr, flags uint8, trace uint64, pts []core.Point) (uint64, error) {
	buf, err := protocol.ReadingsBody{Points: pts}.Encode()
	if err != nil {
		return 0, err
	}
	return c.ackCount(ctx, addr, ctlRequest{kind: protocol.FrameReadings, flags: flags, trace: trace, body: buf})
}

// errUnknownSession reports a shard refusing a merge session it no
// longer holds (evicted under concurrent-query pressure, or the shard
// restarted mid-exchange). The compact merge must abandon the session —
// its ledger counts points the shard would no longer know about — and
// fall back to the full-window path.
var errUnknownSession = errors.New("cluster: shard no longer holds the merge session")

// fragmentParse extracts one fragment of a fragmented response: ok=false
// ignores the frame as a stray, a non-nil error aborts the exchange.
type fragmentParse func(f protocol.Frame) (frag, total int, pts []core.Point, ok bool, err error)

// reassembly collects the fragments of one multi-frame response. Every
// fragment repeats the response's fragment count, so the set is sized
// from whichever arrives first.
type reassembly struct {
	total int
	frags map[int][]core.Point
	bytes map[int]int // fragment body sizes, for the merge-cost metrics
}

// add records one fragment and reports whether all of 0..total-1 are now
// held. A fragment outside its own count is a stray; one announcing a
// different count than the fragments held so far starts the set over, so
// a complete set is always one response's worth.
func (r *reassembly) add(frag, total int, pts []core.Point, bodyBytes int) (done bool) {
	if frag < 0 || frag >= total {
		return false
	}
	if total != r.total {
		r.total, r.frags, r.bytes = total, make(map[int][]core.Point), make(map[int]int)
	}
	r.frags[frag] = pts
	r.bytes[frag] = bodyBytes
	return len(r.frags) == total
}

// join returns a complete set's points in fragment order and its summed
// body bytes.
func (r *reassembly) join() (pts []core.Point, bytes int) {
	for i := 0; i < r.total; i++ {
		pts = append(pts, r.frags[i]...)
		bytes += r.bytes[i]
	}
	return pts, bytes
}

// collectFragments runs one request whose response spans FragCount
// frames (ESTIMATE, SUFFICIENT rounds),
// reassembling the fragments in index order. bytes reports the summed
// response payload, for the merge-cost metrics.
func (c *ctlClient) collectFragments(ctx context.Context, addr *net.UDPAddr, req ctlRequest,
	parse fragmentParse) (pts []core.Point, bytes int, err error) {
	var set reassembly
	collect := func(f protocol.Frame) (bool, error) {
		frag, total, fpts, ok, err := parse(f)
		if err != nil || !ok {
			return false, err
		}
		return set.add(frag, total, fpts, len(f.Body)), nil
	}
	if err := c.exchange(ctx, addr, req, collect); err != nil {
		return nil, 0, err
	}
	pts, bytes = set.join()
	return pts, bytes, nil
}

// estimateFragment parses one ESTIMATE response fragment.
func estimateFragment(f protocol.Frame) (int, int, []core.Point, bool, error) {
	body, err := protocol.DecodeEstimate(f.Body)
	if err != nil {
		return 0, 0, nil, false, err
	}
	return int(body.Frag), int(body.FragCount), body.Points, true, nil
}

// estimate queries one shard's window union, or with a nonzero sensor
// the points that sensor holds of its own, reassembling however many
// fragments the shard split the answer into.
func (c *ctlClient) estimate(ctx context.Context, addr *net.UDPAddr, trace uint64, sensor core.NodeID) ([]core.Point, int, error) {
	req := ctlRequest{kind: protocol.FrameEstimate, trace: trace, body: protocol.EncodeEstimateRequest(sensor)}
	return c.collectFragments(ctx, addr, req, estimateFragment)
}

// sufficient sends one fragment of a compact-merge round to a shard:
// body names the session (the query's trace ID), the round, the
// fragment and its share of the coordinator's delta. The answer to a
// non-final fragment is empty; the final fragment's is the shard's
// Eq. (2) sufficient delta for the round, reassembled from however many
// fragments the shard split it into. bytes reports the response payload
// plus the request's when it carries points; a bare round trigger, as
// every round 0 is, counts as no payload. Retries are safe: a nonzero
// reqID pins the request identity across attempts, the shard absorbs
// idempotently and replays a computed round, and it refuses — rather
// than recreates — a session it no longer holds.
func (c *ctlClient) sufficient(ctx context.Context, addr *net.UDPAddr, reqID uint32,
	body protocol.SufficientBody) (delta []core.Point, bytes int, err error) {
	buf, err := body.Encode()
	if err != nil {
		return nil, 0, err
	}
	req := ctlRequest{kind: protocol.FrameSufficient, reqID: reqID, trace: body.Session, body: buf}
	delta, n, err := c.collectFragments(ctx, addr, req, sufficientFragment(body.Session, body.Round))
	if err != nil {
		return nil, 0, err
	}
	if len(body.Points) > 0 {
		n += len(buf)
	}
	return delta, n, nil
}

// sufficientFragment parses SUFFICIENT response fragments of one session
// round; a refusal aborts the exchange, another round's frame is a stray.
func sufficientFragment(session uint64, round uint16) fragmentParse {
	return func(f protocol.Frame) (int, int, []core.Point, bool, error) {
		if f.Flags&protocol.FlagUnknownSession != 0 {
			return 0, 0, nil, false, errUnknownSession
		}
		body, err := protocol.DecodeSufficient(f.Body)
		if err != nil {
			return 0, 0, nil, false, err
		}
		if body.Session != session || body.Round != round {
			return 0, 0, nil, false, nil
		}
		return int(body.Frag), int(body.FragCount), body.Points, true, nil
	}
}

// retry runs fn with a fresh per-attempt timeout until it succeeds, the
// attempts are spent, or the parent context dies.
func retry(ctx context.Context, attempts int, timeout time.Duration, fn func(context.Context) error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		attemptCtx, cancel := context.WithTimeout(ctx, timeout)
		err = fn(attemptCtx)
		cancel()
		if err == nil || ctx.Err() != nil {
			return err
		}
	}
	return err
}
