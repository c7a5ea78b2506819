package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"innet/internal/core"
	"innet/internal/protocol"
)

// ctlSlots bounds the exchanges the coordinator runs at once with one
// shard, health probes aside: one more waits for a slot (or its
// context) instead of opening a connection the shard would refuse. It
// is half the shard's connection bound, which leaves room for a second
// coordinator's connections, or ones the shard has not yet seen close.
// Every connection is checked out under a slot or by the shard's one
// probe in flight, so the idle pool never holds more than ctlSlots+1
// and needs no bound of its own.
const ctlSlots = maxShardConns / 2

// ctlClient is the coordinator's side of the shard-control wire: per
// shard, a pool of idle TCP connections, each carrying one request at a
// time (stream.go). An exchange checks a connection out and returns it;
// a connection that failed is closed, never reused.
type ctlClient struct {
	// onRTT, when set, observes each successful exchange's round trip
	// (request written to response read) with the request's frame kind.
	// Set once before the first exchange; never mutated after.
	onRTT func(kind protocol.FrameKind, d time.Duration)

	done chan struct{} // closed by close: an exchange waiting for a slot gives up

	mu     sync.Mutex
	idle   map[string][]*ctlConn
	slots  map[string]chan struct{} // per shard, one token per checked-out connection
	open   map[*ctlConn]struct{}    // every connection, idle or checked out
	closed bool
}

// ctlConn is one control connection to one shard.
type ctlConn struct {
	addr   string
	conn   net.Conn
	r      *bufio.Reader
	slot   chan struct{} // the slot it is checked out under; nil for a probe or in the pool
	pooled bool          // checked out of the idle pool: the shard may have gone since
	broken bool          // failed, or its deadline may be poisoned: close, never reuse
}

// errClientClosed reports an exchange attempted after Close.
var errClientClosed = errors.New("cluster: control client closed")

// errNoResponse wraps a failure before any response byte arrived: the
// request was written into a connection the shard no longer serves.
var errNoResponse = errors.New("no response")

func newCtlClient() *ctlClient {
	return &ctlClient{
		done:  make(chan struct{}),
		idle:  make(map[string][]*ctlConn),
		slots: make(map[string]chan struct{}),
		open:  make(map[*ctlConn]struct{}),
	}
}

// get checks out a connection to addr for a request of the given kind:
// an idle one, or a fresh dial. Every kind but HEALTH first takes one of
// the shard's ctlSlots, waiting for one while all are out; a probe takes
// none, so it never waits behind routed batches, snapshots or merges. A
// SUFFICIENT always dials: it is never re-sent, so it must not land on
// a stale pooled connection, and its connection closes with its merge.
func (c *ctlClient) get(ctx context.Context, addr string, kind protocol.FrameKind) (*ctlConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	var slot chan struct{}
	if kind != protocol.FrameHealth {
		if slot = c.slots[addr]; slot == nil {
			slot = make(chan struct{}, ctlSlots)
			c.slots[addr] = slot
		}
	}
	c.mu.Unlock()
	if slot != nil {
		select {
		case slot <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: waiting for a connection to %s: %w", addr, ctx.Err())
		case <-c.done:
			return nil, errClientClosed
		}
	}
	c.mu.Lock()
	if idle := c.idle[addr]; len(idle) > 0 && kind != protocol.FrameSufficient && !c.closed {
		cc := idle[len(idle)-1]
		c.idle[addr] = idle[:len(idle)-1]
		c.mu.Unlock()
		cc.pooled, cc.slot = true, slot
		return cc, nil
	}
	c.mu.Unlock()
	cc, err := c.dial(ctx, addr)
	if err != nil {
		release(slot)
		return nil, err
	}
	cc.slot = slot
	return cc, nil
}

// release returns a slot; nil is a probe's, which holds none.
func release(slot chan struct{}) {
	if slot != nil {
		<-slot
	}
}

// dial opens a fresh connection to addr.
func (c *ctlClient) dial(ctx context.Context, addr string) (*ctlConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	cc := &ctlConn{addr: addr, conn: conn, r: bufio.NewReader(conn)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, errClientClosed
	}
	c.open[cc] = struct{}{}
	return cc, nil
}

// put returns a checked-out connection and its slot: the connection to
// the idle pool if it is healthy, closed otherwise.
func (c *ctlClient) put(cc *ctlConn) {
	slot := cc.slot
	cc.slot = nil
	c.mu.Lock()
	if !cc.broken && !c.closed {
		c.idle[cc.addr] = append(c.idle[cc.addr], cc)
	} else {
		delete(c.open, cc)
		cc.conn.Close()
	}
	c.mu.Unlock()
	release(slot)
}

// redial closes a stale checked-out connection and dials its shard
// afresh under the same slot.
func (c *ctlClient) redial(ctx context.Context, cc *ctlConn) (*ctlConn, error) {
	slot := cc.slot
	cc.slot, cc.broken = nil, true
	c.put(cc)
	fresh, err := c.dial(ctx, cc.addr)
	if err != nil {
		release(slot)
		return nil, err
	}
	fresh.slot = slot
	return fresh, nil
}

// forget closes the idle connections to addr, a shard leaving the map.
func (c *ctlClient) forget(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.idle[addr] {
		delete(c.open, cc)
		cc.conn.Close()
	}
	delete(c.idle, addr)
}

// close closes every connection, idle or checked out: an exchange
// blocked on one returns at once.
func (c *ctlClient) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	for cc := range c.open {
		cc.conn.Close()
	}
	clear(c.open)
	clear(c.idle)
	return nil
}

// ctlRequest describes one shard-control request. trace is the query
// the request belongs to (0 for untraced control work). bodies are the
// request's frames, written back to back: one, or a run of fragments.
type ctlRequest struct {
	kind   protocol.FrameKind
	flags  uint8
	trace  uint64
	bodies [][]byte
}

// collector takes a response's frame bodies in order and reports when
// the response is whole.
type collector func(body []byte) (done bool, err error)

// single collects a one-frame response's body into *body.
func single(body *[]byte) collector {
	return func(b []byte) (bool, error) {
		*body = b
		return true, nil
	}
}

// roundTrip writes req on cc and reads its response into collect,
// giving up when ctx ends. Any failure marks cc broken; one before a
// response byte arrived wraps errNoResponse.
func (c *ctlClient) roundTrip(ctx context.Context, cc *ctlConn, req ctlRequest, collect collector) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// Ending ctx poisons the connection's deadline, which unblocks the
	// read or write; a connection whose deadline may have been poisoned
	// is not reused.
	stop := context.AfterFunc(ctx, func() { cc.conn.SetDeadline(time.Unix(1, 0)) })
	start := time.Now()
	err := c.send(cc, req, collect)
	if !stop() {
		cc.broken = true
	}
	if err != nil {
		cc.broken = true
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return fmt.Errorf("cluster: %v with %s: %w", req.kind, cc.addr, err)
	}
	if c.onRTT != nil {
		c.onRTT(req.kind, time.Since(start))
	}
	return nil
}

// send is roundTrip's I/O: the request's frames out, then response
// frames, each answering a request of the same kind, until collect has
// the whole response.
func (c *ctlClient) send(cc *ctlConn, req ctlRequest, collect collector) error {
	var err error
	for _, body := range req.bodies {
		if err = writeFrame(cc.conn, protocol.Frame{Kind: req.kind, Flags: req.flags, Trace: req.trace, Body: body}); err != nil {
			break
		}
	}
	if err == nil {
		_, err = cc.r.Peek(1)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", errNoResponse, err)
	}
	for {
		resp, err := readFrame(cc.r)
		if err != nil {
			return err
		}
		if !resp.Response() || resp.Kind != req.kind {
			return fmt.Errorf("answered by a %v frame (flags %#x)", resp.Kind, resp.Flags)
		}
		if done, err := collect(resp.Body); done || err != nil {
			return err
		}
	}
}

// exchange runs one request on a connection to addr. A kind other than
// SUFFICIENT that fails on a pooled connection before any response byte
// arrived is sent once more on a fresh dial: the pooled connection was
// stale, as after the shard restarted on the same address. collect has
// seen nothing of the first attempt. SUFFICIENT is never re-sent (a
// compact merge holds its own connections and falls back instead).
func (c *ctlClient) exchange(ctx context.Context, addr string, req ctlRequest, collect collector) error {
	cc, err := c.get(ctx, addr, req.kind)
	if err != nil {
		return err
	}
	err = c.roundTrip(ctx, cc, req, collect)
	if err != nil && cc.pooled && errors.Is(err, errNoResponse) && ctx.Err() == nil {
		if cc, err = c.redial(ctx, cc); err != nil {
			return err
		}
		err = c.roundTrip(ctx, cc, req, collect)
	}
	c.put(cc)
	return err
}

// ackCount runs a request answered by one AckBody frame and returns the
// count it acknowledges.
func (c *ctlClient) ackCount(ctx context.Context, addr string, req ctlRequest) (uint64, error) {
	var body []byte
	if err := c.exchange(ctx, addr, req, single(&body)); err != nil {
		return 0, err
	}
	ack, err := protocol.DecodeAck(body)
	return ack.Count, err
}

// assign pushes one shard-map epoch and returns the version the shard
// acknowledged.
func (c *ctlClient) assign(ctx context.Context, addr string, body protocol.AssignBody) (uint64, error) {
	buf, err := body.Encode()
	if err != nil {
		return 0, err
	}
	return c.ackCount(ctx, addr, ctlRequest{kind: protocol.FrameAssign, bodies: [][]byte{buf}})
}

// health probes one shard.
func (c *ctlClient) health(ctx context.Context, addr string) (protocol.HealthBody, error) {
	var body []byte
	if err := c.exchange(ctx, addr, ctlRequest{kind: protocol.FrameHealth, bodies: [][]byte{nil}}, single(&body)); err != nil {
		return protocol.HealthBody{}, err
	}
	return protocol.DecodeHealth(body)
}

// readings sends one batch of points and returns the count the shard
// accepted: a routed ingest batch, or with FlagTransfer a window copy's
// write. The batch goes maxFramePoints to a frame, each its own
// exchange, and the first frame that fails ends it.
func (c *ctlClient) readings(ctx context.Context, addr string, flags uint8, trace uint64, pts []core.Point) (frames int, accepted uint64, err error) {
	for len(pts) > 0 {
		chunk := pts[:min(len(pts), maxFramePoints)]
		pts = pts[len(chunk):]
		buf, err := protocol.ReadingsBody{Points: chunk}.Encode()
		if err != nil {
			return frames, accepted, err
		}
		n, err := c.ackCount(ctx, addr, ctlRequest{kind: protocol.FrameReadings, flags: flags, trace: trace, bodies: [][]byte{buf}})
		if err != nil {
			return frames, accepted, err
		}
		frames++
		accepted += n
	}
	return frames, accepted, nil
}

// estimate queries one shard's window union, or with a nonzero sensor
// the points that sensor holds of its own; the answer comes as a run of
// fragments. bytes is the response payload, for the merge-cost metrics.
func (c *ctlClient) estimate(ctx context.Context, addr string, trace uint64, sensor core.NodeID) (pts []core.Point, bytes int, err error) {
	req := ctlRequest{kind: protocol.FrameEstimate, trace: trace, bodies: [][]byte{protocol.EncodeEstimateRequest(sensor)}}
	var run fragRun
	err = c.exchange(ctx, addr, req, func(body []byte) (bool, error) {
		frag, err := protocol.DecodeEstimate(body)
		if err != nil {
			return false, err
		}
		pts = append(pts, frag.Points...)
		bytes += len(body)
		return run.add(frag.Frag, frag.FragCount)
	})
	if err != nil {
		return nil, 0, err
	}
	return pts, bytes, nil
}

// sufficient runs one compact-merge round on cc, the connection that
// holds the merge's session with this shard: body names the session (the
// query's trace ID), the round and the coordinator's delta; the answer is
// the shard's Eq. (2) sufficient delta for the round. Either may go as a
// run of fragments. bytes reports the response payload plus the
// request's when it carries points; a bare round trigger, as every
// round 0 is, counts as no payload.
func (c *ctlClient) sufficient(ctx context.Context, cc *ctlConn, body protocol.SufficientBody) (delta []core.Point, bytes int, err error) {
	bodies, err := splitPoints(body.Points, func(frag, count uint16, chunk []core.Point) ([]byte, error) {
		return protocol.SufficientBody{Session: body.Session, Round: body.Round, Frag: frag, FragCount: count, Points: chunk}.Encode()
	})
	if err != nil {
		return nil, 0, err
	}
	var run fragRun
	err = c.roundTrip(ctx, cc, ctlRequest{kind: protocol.FrameSufficient, trace: body.Session, bodies: bodies}, func(b []byte) (bool, error) {
		got, err := protocol.DecodeSufficient(b)
		if err != nil {
			return false, err
		}
		if got.Session != body.Session || got.Round != body.Round {
			return false, fmt.Errorf("session %016x round %d answered by session %016x round %d",
				body.Session, body.Round, got.Session, got.Round)
		}
		delta = append(delta, got.Points...)
		bytes += len(b)
		return run.add(got.Frag, got.FragCount)
	})
	if err != nil {
		return nil, 0, err
	}
	if len(body.Points) > 0 {
		for _, b := range bodies {
			bytes += len(b)
		}
	}
	return delta, bytes, nil
}
