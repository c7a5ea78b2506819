package ingest

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strconv"
	"time"

	"innet/internal/core"
)

// UDP line protocol: the firehose path for constrained emitters (motes,
// shell scripts, netcat). A datagram carries one reading per line:
//
//	<sensor> <at_ms> <v1> [v2 ...]\n
//
// e.g. "7 120000 55.3" — sensor 7, data time 120 s, temperature 55.3.
// Fields are ASCII separated by spaces or tabs; blank lines are ignored;
// a line that fails to parse is dropped and counted (Stats.Malformed)
// without affecting the rest of the datagram, exactly like a corrupted
// radio frame. There are no acknowledgements: delivery is best-effort by
// design, matching the paper's loss model — the HTTP endpoint is the
// path that reports per-reading acceptance.

// maxUDPPayload bounds one datagram; readings are tiny, so this fits
// hundreds of lines.
const maxUDPPayload = 64 * 1024

// ServeUDP reads line-protocol datagrams from conn and ingests each
// parsed reading until conn is closed or the service closes; see
// ServeLines.
func (s *Service) ServeUDP(conn net.PacketConn) error {
	return ServeLines(s.ctx, conn, ErrClosed, func(readings []Reading, malformed int) {
		s.malformed.Add(uint64(malformed))
		for _, r := range readings {
			_ = s.Ingest(r) // rejections are counted by Ingest; UDP has no reply
		}
	})
}

// ServeLines is the read loop behind both UDP front doors — this
// service's and the cluster coordinator's. It hands each datagram's
// readings, and how many of its lines were malformed, to deliver, until
// conn is closed or ctx ends (a watcher forces the blocked read out via a
// read deadline, so a closing engine really does end the loop on a quiet
// socket). It always returns a non-nil error: net.ErrClosed after the
// socket closed, closed after ctx ended.
func ServeLines(ctx context.Context, conn net.PacketConn, closed error, deliver func(readings []Reading, malformed int)) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.SetReadDeadline(time.Now())
		case <-done:
		}
	}()

	buf := make([]byte, maxUDPPayload)
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			if ctx.Err() != nil {
				return closed
			}
			return err
		}
		deliver(ParseDatagram(buf, n))
	}
}

// ParseDatagram decodes the line-protocol datagram read into buf[:n],
// returning its readings in line order and how many lines (or truncated
// tails) were dropped as malformed. It is the one datagram parser behind
// both UDP front doors — this service's and the cluster coordinator's.
//
// A read that fills buf exactly is the kernel's truncation sentinel: the
// datagram may have lost its tail, leaving a final line cut mid-field
// that could still parse — as the wrong reading. Everything past the last
// complete line is dropped and counted as one malformed payload; complete
// lines ahead of the cut are preserved, like the rest of a datagram with
// one corrupt line.
func ParseDatagram(buf []byte, n int) (readings []Reading, malformed int) {
	payload := buf[:n]
	if n == len(buf) {
		malformed++
		payload = payload[:max(bytes.LastIndexByte(payload, '\n'), 0)]
	}
	for _, line := range bytes.Split(payload, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		r, err := ParseLine(line)
		if err != nil {
			malformed++
			continue
		}
		readings = append(readings, r)
	}
	return readings, malformed
}

// ParseLine decodes one line-protocol reading,
// "<sensor> <at_ms> <v1> [v2 ...]".
func ParseLine(line []byte) (Reading, error) {
	fields := bytes.Fields(line)
	if len(fields) < 3 {
		return Reading{}, fmt.Errorf("%w: want at least 3 fields, got %d", ErrBadReading, len(fields))
	}
	sensor, err := strconv.ParseUint(string(fields[0]), 10, 16)
	if err != nil {
		return Reading{}, fmt.Errorf("%w: sensor %q", ErrBadReading, fields[0])
	}
	atMS, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return Reading{}, fmt.Errorf("%w: timestamp %q", ErrBadReading, fields[1])
	}
	values := make([]float64, 0, len(fields)-2)
	for _, f := range fields[2:] {
		v, err := strconv.ParseFloat(string(f), 64)
		if err != nil {
			return Reading{}, fmt.Errorf("%w: value %q", ErrBadReading, f)
		}
		values = append(values, v)
	}
	return Reading{
		Sensor: core.NodeID(sensor),
		At:     time.Duration(atMS) * time.Millisecond,
		Values: values,
	}, nil
}
