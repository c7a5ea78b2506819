package loadgen

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// FireStats counts what the firehose did, harness-side. Sent is lines
// written to the socket; what survived the trip is the window each
// checkpoint fetches from the target.
type FireStats struct {
	Generated uint64 // events produced, down sensors included
	Sent      uint64 // lines written to the UDP socket
	Lost      uint64 // readings suppressed by simulated radio loss
	Down      uint64 // events skipped because the sensor was churned out
	Bursts    uint64 // injected outliers actually sent
	Datagrams uint64 // datagrams written
}

// Firehose drives one scenario's trace at a UDP line-protocol listener:
// a single generator packs events into datagrams (the trace must be
// consumed in order to stay deterministic) and a bounded pool of sender
// goroutines, each with its own socket, writes them — the gource-style
// concurrency split: generation is cheap and ordered, the syscalls are
// the parallel part.
type Firehose struct {
	sc     *Scenario
	trace  *Trace
	target string

	generated, sent, lost atomic.Uint64
	down, bursts, grams   atomic.Uint64
}

// NewFirehose readies a firehose for target ("host:port").
func NewFirehose(sc *Scenario, target string) *Firehose {
	return &Firehose{sc: sc, trace: NewTrace(sc), target: target}
}

// Stats snapshots the harness-side counters.
func (f *Firehose) Stats() FireStats {
	return FireStats{
		Generated: f.generated.Load(),
		Sent:      f.sent.Load(),
		Lost:      f.lost.Load(),
		Down:      f.down.Load(),
		Bursts:    f.bursts.Load(),
		Datagrams: f.grams.Load(),
	}
}

// Run fires the trace for one segment of wall time d, then drains the
// sender pool and returns — so when Run returns, every generated
// datagram has been written to the socket and a Flush barrier on the
// target covers the whole segment. Run may be called repeatedly; the
// trace continues where the previous segment stopped.
func (f *Firehose) Run(ctx context.Context, d time.Duration) error {
	work := make(chan []byte, 2*f.sc.Traffic.Senders)
	var wg sync.WaitGroup
	sendErr := make(chan error, f.sc.Traffic.Senders)
	for i := 0; i < f.sc.Traffic.Senders; i++ {
		conn, err := net.Dial("udp", f.target)
		if err != nil {
			close(work)
			wg.Wait()
			return fmt.Errorf("loadgen: dial %s: %w", f.target, err)
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			for buf := range work {
				if _, err := conn.Write(buf); err != nil {
					select {
					case sendErr <- err:
					default:
					}
					return
				}
				f.grams.Add(1)
			}
		}(conn)
	}

	start := time.Now()
	deadline := start.Add(d)
	var paced uint64 // lines subject to pacing so far this segment
	buf := make([]byte, 0, 64*1024)
	lines := 0
	flush := func() bool {
		if lines == 0 {
			return true
		}
		out := make([]byte, len(buf))
		copy(out, buf)
		select {
		case work <- out:
		case <-ctx.Done():
			return false
		}
		buf, lines = buf[:0], 0
		return true
	}

loop:
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			break loop
		case err := <-sendErr:
			close(work)
			wg.Wait()
			return fmt.Errorf("loadgen: send: %w", err)
		default:
		}
		ev := f.trace.Next()
		f.generated.Add(1)
		switch {
		case ev.Down:
			f.down.Add(1)
			continue
		case ev.Lost:
			f.lost.Add(1)
			continue
		}
		buf = appendLine(buf, ev)
		lines++
		f.sent.Add(1)
		if ev.Burst {
			f.bursts.Add(1)
		}
		if lines >= f.sc.Traffic.LinesPerDatagram {
			if !flush() {
				break loop
			}
			// Pacing: sleep whatever keeps sent-so-far under Rate.
			if r := f.sc.Traffic.Rate; r > 0 {
				paced += uint64(f.sc.Traffic.LinesPerDatagram)
				ahead := time.Duration(float64(paced)/r*float64(time.Second)) - time.Since(start)
				if ahead > 0 {
					select {
					case <-time.After(ahead):
					case <-ctx.Done():
						break loop
					}
				}
			}
		}
	}
	flush()
	close(work)
	wg.Wait()
	select {
	case err := <-sendErr:
		return fmt.Errorf("loadgen: send: %w", err)
	default:
	}
	return ctx.Err()
}

// appendLine formats one event as a line-protocol reading,
// "<sensor> <at_ms> <v1> [v2 ...]\n". FormatFloat with -1 precision
// round-trips exactly, so the target parses the same float64 the
// regime generated — checkpoint comparisons are bit-exact.
func appendLine(buf []byte, ev Event) []byte {
	buf = strconv.AppendUint(buf, uint64(ev.Sensor), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, ev.At.Milliseconds(), 10)
	for _, v := range ev.Values {
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, '\n')
}
