package cluster

import (
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/protocol"
)

// TestTruncatedControlDatagramDetected pins the truncation sentinel the
// control-plane read loops apply. A UDP read that fills the receive
// buffer exactly is indistinguishable from a larger datagram the kernel
// cut to fit, and the frame codec cannot notice on its own: frames
// carry no body-length field, so DecodeFrame accepts the cut datagram
// as well-formed and hands a silently shortened body to the kind-level
// codec. The only reliable signal is the read size itself — n ==
// len(buf) — which both ctlClient.readLoop and ShardServer.Serve now
// treat as "drop the frame and count it" instead of decoding.
func TestTruncatedControlDatagramDetected(t *testing.T) {
	// Build a SUFFICIENT response whose encoding exceeds the receive
	// buffer — what a mis-budgeted fragmenter, or a future transport
	// with jumbo datagrams, could put on the wire. (IPv4 UDP caps
	// payloads at 65507 bytes, so today this frame cannot even be sent;
	// the sentinel is the guard for when that ceiling moves.)
	per := core.EncodedPointSize(1)
	n := maxCtlDatagram/per + 2
	pts := make([]core.Point, n)
	for i := range pts {
		pts[i] = core.NewPoint(core.NodeID(i%1000+1), uint32(i), time.Duration(i)*time.Millisecond, 20)
	}
	body, err := protocol.SufficientBody{Session: 7, FragCount: 1, Points: pts}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	frame := protocol.EncodeFrame(protocol.Frame{
		Kind:  protocol.FrameSufficient,
		Flags: protocol.FlagResponse,
		ReqID: 1,
		Body:  body,
	})
	if len(frame) <= maxCtlDatagram {
		t.Fatalf("frame is %d bytes, want > %d to overflow the buffer", len(frame), maxCtlDatagram)
	}

	// The kernel delivers exactly buffer-size bytes of it: an
	// exactly-64 KiB datagram from the reader's point of view.
	cut := frame[:maxCtlDatagram]

	// The frame layer accepts it as complete — this is the pre-fix
	// failure mode: the truncated body reaches the kind-level codec as
	// if the datagram were whole.
	f, err := protocol.DecodeFrame(cut)
	if err != nil {
		t.Fatalf("DecodeFrame rejected the truncated datagram (%v); the read-size sentinel would be redundant", err)
	}
	const header = 16 // magic ver kind flags reqID trace
	if len(f.Body) != maxCtlDatagram-header {
		t.Fatalf("decoded body is %d bytes, want the cut %d", len(f.Body), maxCtlDatagram-header)
	}

	// Only the read size can tell. The loops drop exactly this case.
	if !truncatedDatagram(len(cut), maxCtlDatagram) {
		t.Fatal("an exactly-buffer-size read must trip the truncation sentinel")
	}
	if truncatedDatagram(maxCtlDatagram-1, maxCtlDatagram) {
		t.Fatal("a read below the buffer size must not trip the sentinel")
	}
}
