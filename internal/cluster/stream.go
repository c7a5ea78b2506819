package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"innet/internal/core"
	"innet/internal/protocol"
)

// The shard-control stream: every protocol.Frame travels behind a 4-byte
// big-endian length prefix on a TCP connection. A connection carries one
// request at a time and its response comes back before the next request
// is written, so responses need no correlation and nothing arrives twice.
// A point list too long for one frame (an ESTIMATE answer, a SUFFICIENT
// round either way) goes as a run of frames back to back, fragment 0 of
// k to k-1 of k, and the reader reads the k frames in order: the stream
// already orders them, so nothing is reassembled.

// maxFrameLen caps one frame's length (header and body) in either
// direction. A reader refuses a longer prefix before allocating anything
// for it, so a garbage prefix costs a shard nothing but the connection.
const maxFrameLen = 16 << 20

// maxFramePoints bounds the points one frame carries: at the widest
// point the codec admits (255 features) such a frame stays under
// maxFrameLen, and the count under the point codec's 65,535.
const maxFramePoints = 4096

// errFrameTooLarge reports a length prefix, or a frame to be written,
// past maxFrameLen.
var errFrameTooLarge = errors.New("cluster: control frame exceeds the length cap")

// writeFrame writes f behind its length prefix, in one write.
func writeFrame(w io.Writer, f protocol.Frame) error {
	frame := protocol.EncodeFrame(f)
	if len(frame) > maxFrameLen {
		return fmt.Errorf("%w: %d bytes", errFrameTooLarge, len(frame))
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(frame)))
	bufs := net.Buffers{prefix[:], frame}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one length-prefixed frame. It returns io.EOF only when
// the stream ended cleanly between frames; a stream cut inside a frame
// is io.ErrUnexpectedEOF. The frame's body is its own allocation.
func readFrame(r io.Reader) (protocol.Frame, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return protocol.Frame{}, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > maxFrameLen {
		return protocol.Frame{}, fmt.Errorf("%w: prefix says %d bytes", errFrameTooLarge, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return protocol.Frame{}, err
	}
	return protocol.DecodeFrame(buf)
}

// splitPoints encodes pts as the bodies of a run of frames,
// maxFramePoints to a frame; encode numbers each one frag of count. No
// points is one frame.
func splitPoints(pts []core.Point, encode func(frag, count uint16, chunk []core.Point) ([]byte, error)) ([][]byte, error) {
	count := max(1, (len(pts)+maxFramePoints-1)/maxFramePoints)
	if count > math.MaxUint16 {
		return nil, fmt.Errorf("cluster: %d points exceed %d frames", len(pts), math.MaxUint16)
	}
	bodies := make([][]byte, count)
	for i := range bodies {
		chunk := pts[min(i*maxFramePoints, len(pts)):min((i+1)*maxFramePoints, len(pts))]
		var err error
		if bodies[i], err = encode(uint16(i), uint16(count), chunk); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// fragRun checks that a run of frames numbers itself 0 of k, 1 of k, …,
// k-1 of k, in the order the stream delivers them.
type fragRun struct{ next, count uint16 }

// add takes the next frame's numbering and reports whether it ends the
// run.
func (r *fragRun) add(frag, count uint16) (done bool, err error) {
	if frag != r.next || count == 0 || (r.next > 0 && count != r.count) {
		return false, fmt.Errorf("fragment %d of %d where fragment %d belongs", frag, count, r.next)
	}
	r.next, r.count = r.next+1, count
	return r.next == count, nil
}
