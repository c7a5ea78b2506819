package protocol

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"innet/internal/core"
)

func ctlPoints() []core.Point {
	return []core.Point{
		core.NewPoint(3, 17, 42*time.Second, 55.3, 1, 2),
		core.NewPoint(9, 0, 0, -40),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	body, err := ReadingsBody{Points: ctlPoints()}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	in := Frame{Kind: FrameReadings, Flags: FlagResponse | FlagTransfer, ReqID: 0xdeadbeef, Body: body}
	out, err := DecodeFrame(EncodeFrame(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Flags != in.Flags || out.ReqID != in.ReqID {
		t.Fatalf("header mismatch: got %+v, want %+v", out, in)
	}
	if !out.Response() {
		t.Fatal("Response() false on a response frame")
	}
	if !bytes.Equal(out.Body, in.Body) {
		t.Fatal("body mismatch")
	}
}

func TestFrameRejectsForeignDatagrams(t *testing.T) {
	cases := [][]byte{
		nil,
		{frameMagic},
		[]byte("GET / HTTP/1.1\r\n"),
		append([]byte{frameMagic, 0x7f, 1, 0}, make([]byte, 12)...), // wrong version
	}
	for i, buf := range cases {
		if _, err := DecodeFrame(buf); !errors.Is(err, ErrNotControlFrame) {
			t.Fatalf("case %d: got %v, want ErrNotControlFrame", i, err)
		}
	}
	// Right magic, nonsense kind: malformed, not foreign.
	bad := EncodeFrame(Frame{Kind: FrameKind(99)})
	if _, err := DecodeFrame(bad); err == nil || errors.Is(err, ErrNotControlFrame) {
		t.Fatalf("unknown kind: got %v, want a malformed-frame error", err)
	}
}

func TestAssignRoundTrip(t *testing.T) {
	in := AssignBody{MapVersion: 12, ShardIndex: 1, ShardCount: 3,
		Sensors: []core.NodeID{2, 5, 8, 11},
		Evict:   []core.NodeID{3, 9}}
	buf, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeAssign(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.MapVersion != in.MapVersion || out.ShardIndex != in.ShardIndex ||
		out.ShardCount != in.ShardCount || len(out.Sensors) != len(in.Sensors) ||
		len(out.Evict) != len(in.Evict) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	for i := range in.Sensors {
		if out.Sensors[i] != in.Sensors[i] {
			t.Fatalf("sensor %d: got %d, want %d", i, out.Sensors[i], in.Sensors[i])
		}
	}
	for i := range in.Evict {
		if out.Evict[i] != in.Evict[i] {
			t.Fatalf("evict %d: got %d, want %d", i, out.Evict[i], in.Evict[i])
		}
	}
	if _, err := DecodeAssign(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated ASSIGN decoded")
	}
	if _, err := DecodeAssign(append(buf, 0)); err == nil {
		t.Fatal("ASSIGN with trailing bytes decoded")
	}
}

func TestEstimateReadingsRoundTrip(t *testing.T) {
	pts := ctlPoints()

	eb, err := EstimateBody{Frag: 1, FragCount: 4, Points: pts}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e, err := DecodeEstimate(eb)
	if err != nil {
		t.Fatal(err)
	}
	if e.Frag != 1 || e.FragCount != 4 || len(e.Points) != 2 {
		t.Fatalf("estimate mismatch: %+v", e)
	}
	if e.Points[1].Value[0] != -40 {
		t.Fatalf("estimate point values lost: %+v", e.Points[1])
	}

	rb, err := ReadingsBody{Points: pts}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := DecodeReadings(rb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Points) != 2 || rd.Points[0].Birth != 42*time.Second {
		t.Fatalf("readings mismatch: %+v", rd)
	}
	if _, err := DecodeReadings(rb[:3]); err == nil {
		t.Fatal("truncated READINGS decoded")
	}
}

// TestEstimateRequestRoundTrip: an ESTIMATE request is empty (the whole
// window union) or one nonzero 2-byte sensor ID; decode∘encode is the
// identity, and every other body is refused.
func TestEstimateRequestRoundTrip(t *testing.T) {
	for _, sensor := range []core.NodeID{0, 1, 3, 0xffff} {
		enc := EncodeEstimateRequest(sensor)
		if (len(enc) == 0) != (sensor == 0) || len(enc) > 2 {
			t.Fatalf("sensor %d: %d-byte request", sensor, len(enc))
		}
		got, err := DecodeEstimateRequest(enc)
		if err != nil || got != sensor {
			t.Fatalf("sensor %d: decoded %d, %v", sensor, got, err)
		}
	}
	for _, buf := range [][]byte{{0, 0}, {3}, {0, 3, 0}, {0, 0, 0, 0}} {
		if id, err := DecodeEstimateRequest(buf); err == nil {
			t.Fatalf("request %x decoded as sensor %d", buf, id)
		}
	}
}

func TestSufficientRoundTrip(t *testing.T) {
	pts := ctlPoints()

	// Request shape: the coordinator's delta, fragment 0 of 2.
	req, err := SufficientBody{Session: 0xfeedface00112233, Round: 3, FragCount: 2, Points: pts}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rq, err := DecodeSufficient(req)
	if err != nil {
		t.Fatal(err)
	}
	if rq.Session != 0xfeedface00112233 || rq.Round != 3 || rq.Frag != 0 || rq.FragCount != 2 ||
		len(rq.Points) != 2 || rq.Points[0].ID != pts[0].ID {
		t.Fatalf("sufficient request mismatch: %+v", rq)
	}

	// Response shape: fragmented points.
	sb, err := SufficientBody{Session: 7, Round: 3, Frag: 1, FragCount: 2, Points: pts}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSufficient(sb)
	if err != nil {
		t.Fatal(err)
	}
	if s.Session != 7 || s.Round != 3 || s.Frag != 1 || s.FragCount != 2 ||
		len(s.Points) != 2 || s.Points[1].Value[0] != -40 {
		t.Fatalf("sufficient response mismatch: %+v", s)
	}
	if _, err := DecodeSufficient(sb[:13]); err == nil {
		t.Fatal("truncated SUFFICIENT decoded")
	}
}

func TestHealthAckRoundTrip(t *testing.T) {
	h, err := DecodeHealth(HealthBody{MapVersion: 9, Sensors: 1024}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if h.MapVersion != 9 || h.Sensors != 1024 {
		t.Fatalf("health mismatch: %+v", h)
	}
	a, err := DecodeAck(AckBody{Count: 1 << 40}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 1<<40 {
		t.Fatalf("ack mismatch: %+v", a)
	}
	if _, err := DecodeHealth([]byte{1, 2}); err == nil {
		t.Fatal("truncated HEALTH decoded")
	}
	if _, err := DecodeAck([]byte{1}); err == nil {
		t.Fatal("truncated ACK decoded")
	}
}

// TestFrameDecodeNeverPanics feeds the decoder random mutations of a
// valid frame — the control listener shares a socket with whatever the
// network throws at it.
func TestFrameDecodeNeverPanics(t *testing.T) {
	body, _ := AssignBody{MapVersion: 1, Sensors: []core.NodeID{1, 2, 3}}.Encode()
	valid := EncodeFrame(Frame{Kind: FrameAssign, ReqID: 1, Body: body})
	for cut := 0; cut <= len(valid); cut++ {
		f, err := DecodeFrame(valid[:cut])
		if err != nil {
			continue
		}
		// Header decoded: body decoding must also stay panic-free.
		_, _ = DecodeAssign(f.Body)
		_, _ = DecodeEstimateRequest(f.Body)
		_, _ = DecodeEstimate(f.Body)
		_, _ = DecodeReadings(f.Body)
		_, _ = DecodeHealth(f.Body)
		_, _ = DecodeAck(f.Body)
		_, _ = DecodeSufficient(f.Body)
	}
}

// TestFrameTraceRoundTrip: the trace ID rides every frame — nonzero for
// query work, zero for untraced control work — and never leaks into the
// body.
func TestFrameTraceRoundTrip(t *testing.T) {
	body, err := SufficientBody{Session: 5, Round: 1, FragCount: 1, Points: ctlPoints()}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []uint64{0xabad1dea00c0ffee, 0} {
		in := Frame{Kind: FrameSufficient, ReqID: 7, Trace: trace, Body: body}
		out, err := DecodeFrame(EncodeFrame(in))
		if err != nil {
			t.Fatal(err)
		}
		if out.Trace != trace || out.Kind != in.Kind || out.Flags != 0 || out.ReqID != in.ReqID || !bytes.Equal(out.Body, body) {
			t.Fatalf("trace %x: frame mangled: %+v", trace, out)
		}
	}
}

// TestFrameLayout pins the one wire layout at the byte level — magic,
// version 0x02, kind, flags, reqID, trace, body — and that a frame in the
// retired v1 layout (8-byte header, no trace field) is dropped as not
// ours, whatever its length.
func TestFrameLayout(t *testing.T) {
	body := HealthBody{MapVersion: 3, Sensors: 9, Sessions: 2}.Encode()
	enc := EncodeFrame(Frame{Kind: FrameHealth, Flags: FlagResponse, ReqID: 0x01020304, Trace: 0x1112131415161718, Body: body})
	want := append([]byte{'C', 0x02, byte(FrameHealth), FlagResponse,
		1, 2, 3, 4, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18}, body...)
	if !bytes.Equal(enc, want) {
		t.Fatalf("frame layout changed:\n got %x\nwant %x", enc, want)
	}
	v1 := append([]byte{'C', 0x01, byte(FrameHealth), FlagResponse, 1, 2, 3, 4}, body...)
	for _, buf := range [][]byte{v1, v1[:8]} {
		if _, err := DecodeFrame(buf); !errors.Is(err, ErrNotControlFrame) {
			t.Fatalf("v1 frame (%d bytes): got %v, want ErrNotControlFrame", len(buf), err)
		}
	}
}

// TestFrameShortHeaderRejected: the header is fixed-size, so anything
// shorter is not a control frame — never a frame with a partial trace.
func TestFrameShortHeaderRejected(t *testing.T) {
	enc := EncodeFrame(Frame{Kind: FrameHealth, ReqID: 2, Trace: 42})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeFrame(enc[:cut]); !errors.Is(err, ErrNotControlFrame) {
			t.Fatalf("cut %d: got %v, want ErrNotControlFrame", cut, err)
		}
	}
}

// TestHealthRoundTrip pins the one HEALTH encoding: 12 bytes carrying the
// merge-session occupancy, with the retired 10-byte body (and anything
// else) rejected.
func TestHealthRoundTrip(t *testing.T) {
	in := HealthBody{MapVersion: 11, Sensors: 300, Sessions: 6}
	enc := in.Encode()
	h, err := DecodeHealth(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h != in {
		t.Fatalf("health mismatch: got %+v, want %+v", h, in)
	}
	for _, n := range []int{10, 11, 13} {
		if _, err := DecodeHealth(append(enc, 0)[:n]); err == nil {
			t.Fatalf("%d-byte HEALTH decoded", n)
		}
	}
}

// TestFrameKindNames: every kind has a wire-doc name and a lowercase
// metric label; unknown kinds — the retired kinds 2, 6 and 7 among them —
// fall back to a printable name and a single fixed label (so a corrupt
// kind byte cannot grow metric cardinality), and decode as unknown.
func TestFrameKindNames(t *testing.T) {
	kinds := map[FrameKind]string{FrameAssign: "ASSIGN", FrameEstimate: "ESTIMATE", FrameHealth: "HEALTH", FrameReadings: "READINGS", FrameSufficient: "SUFFICIENT"}
	for b := range 256 {
		k := FrameKind(b)
		if name, ok := kinds[k]; k.valid() != ok || (ok && k.String() != name) {
			t.Fatalf("kind %d: valid=%v name %q, want exactly ASSIGN 1, ESTIMATE 3, HEALTH 4, READINGS 5, SUFFICIENT 8", b, k.valid(), k.String())
		}
	}
	for k := range kinds {
		if !k.valid() || k.String() == "" || k.MetricLabel() != strings.ToLower(k.String()) {
			t.Fatalf("kind %d: name %q, label %q", k, k.String(), k.MetricLabel())
		}
	}
	for _, k := range []FrameKind{0, 2, 6, 7, FrameSufficient + 1, 255} {
		if k.valid() || k.MetricLabel() != "unknown" || !strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("unknown kind %d: valid=%v name %q label %q", k, k.valid(), k.String(), k.MetricLabel())
		}
		if _, err := DecodeFrame(EncodeFrame(Frame{Kind: k, ReqID: 1})); err == nil || errors.Is(err, ErrNotControlFrame) {
			t.Fatalf("unknown kind %d: decode got %v, want a malformed-frame error", k, err)
		}
	}
}
