package protocol

// Shard-control wire format: the coordinator⇄shard companion to the
// detector's tagged-broadcast packets (core.EncodeOutbound). Where the
// detector wire carries the paper's algorithm between sensors, these
// frames carry the cluster-control plane between the coordinator process
// and its detector shard processes, as UDP datagrams.
//
//	frame := magic:'C' ver:0x02 kind:uint8 flags:uint8 reqID:uint32 trace:uint64 body
//
// Multi-byte integers are big-endian, matching the detector wire. Every
// request carries a caller-chosen reqID; the response echoes it with
// FlagResponse set, which is all the correlation a UDP request/response
// exchange needs. The trace field carries the query-scoped trace ID the
// frame belongs to (0 = untraced work) and is echoed on responses. There
// is one layout and one version: coordinator and shards deploy from one
// build, and a frame of any other version is dropped as not ours. Bodies
// reuse core.EncodePoints wherever points travel, so the point codec —
// including its fuzz harness — is shared.
//
// Kinds:
//
//	ASSIGN    coordinator → shard   shard-map epoch: version, the shard's
//	                                slot, the sensors it owns, and the
//	                                sensors moved away from it (detach)
//	ESTIMATE  coordinator → shard   window query: an empty request asks
//	                                for the shard's window union, a
//	                                sensor ID for the points that
//	                                sensor holds of its own (a window
//	                                copy's read); the response may span
//	                                several fragments, each its own
//	                                frame echoing the reqID
//	HEALTH    coordinator → shard   liveness probe; response reports the
//	                                shard's map version and fleet size
//	READINGS  coordinator → shard   routed ingest batch with
//	                                coordinator-assigned point identities;
//	                                with FlagTransfer, one chunk of a
//	                                window copy's write
//	SUFFICIENT coordinator → shard  compact-merge round: the request
//	                                carries the coordinator's sufficient
//	                                delta for session S, round R, in
//	                                in-order fragments when it outgrows
//	                                one frame; the final fragment's
//	                                response is the shard's Eq. (2)
//	                                delta, possibly in several fragments
//	                                echoing the reqID, and is replayed
//	                                verbatim on a retried round
//
// Every response carries its request's kind. ASSIGN and READINGS are
// answered with an AckBody count.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"innet/internal/core"
)

// FrameKind discriminates shard-control frames.
type FrameKind uint8

// Shard-control frame kinds. Kinds 2 (HANDOFF), 6 (ACK) and 7 (LEDGER)
// are retired, not reused: a frame carrying one is rejected as unknown.
const (
	FrameAssign     FrameKind = 1
	FrameEstimate   FrameKind = 3
	FrameHealth     FrameKind = 4
	FrameReadings   FrameKind = 5
	FrameSufficient FrameKind = 8
)

// frameKinds names every kind once: its wire-doc name and its lowercase
// metric label. A kind is valid exactly when it has a name here.
var frameKinds = [...]struct{ name, label string }{
	FrameAssign:     {"ASSIGN", "assign"},
	FrameEstimate:   {"ESTIMATE", "estimate"},
	FrameHealth:     {"HEALTH", "health"},
	FrameReadings:   {"READINGS", "readings"},
	FrameSufficient: {"SUFFICIENT", "sufficient"},
}

func (k FrameKind) valid() bool { return int(k) < len(frameKinds) && frameKinds[k].name != "" }

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return frameKinds[k].name
}

// MetricLabel returns the frame kind as a lowercase label value for the
// shard-control RPC latency histogram. Unlike String, the fallback is a
// fixed word: metric label cardinality must stay bounded even if a
// corrupt frame carries an unknown kind byte.
func (k FrameKind) MetricLabel() string {
	if !k.valid() {
		return "unknown"
	}
	return frameKinds[k].label
}

// Frame flags.
const (
	// FlagResponse marks a frame answering the request with the same reqID.
	FlagResponse = 1 << 0
	// FlagTransfer marks a READINGS request as a window copy's write:
	// the shard admits every point (a restore must not shed), where a
	// live batch is ingested latest-wins.
	FlagTransfer = 1 << 1
	// FlagUnknownSession marks a SUFFICIENT response refusing a
	// merge session the shard does not hold. Sessions are only created
	// by a round-0 SUFFICIENT, so a mid-exchange eviction (or shard
	// restart) surfaces as an explicit refusal instead of a silently
	// recreated session with an empty ledger — the coordinator must
	// abandon the compact session and fall back to the full-window
	// path, because its own ledger already counts points the shard
	// would no longer know about.
	FlagUnknownSession = 1 << 2
)

const (
	frameMagic   = 'C'
	frameVersion = 0x02
	frameHeader  = 2 + 1 + 1 + 4 + 8
)

// ErrNotControlFrame reports a datagram that is not a shard-control frame
// at all (wrong magic/version), as opposed to a malformed one.
var ErrNotControlFrame = errors.New("protocol: not a shard-control frame")

// Frame is one decoded shard-control frame.
type Frame struct {
	Kind  FrameKind
	Flags uint8
	ReqID uint32
	Trace uint64 // query-scoped trace ID; 0 = untraced work
	Body  []byte
}

// Response reports whether FlagResponse is set.
func (f Frame) Response() bool { return f.Flags&FlagResponse != 0 }

// EncodeFrame serializes a shard-control frame.
func EncodeFrame(f Frame) []byte {
	buf := make([]byte, 0, frameHeader+len(f.Body))
	buf = append(buf, frameMagic, frameVersion, uint8(f.Kind), f.Flags)
	buf = binary.BigEndian.AppendUint32(buf, f.ReqID)
	buf = binary.BigEndian.AppendUint64(buf, f.Trace)
	return append(buf, f.Body...)
}

// DecodeFrame parses a datagram produced by EncodeFrame. The body is a
// sub-slice of buf, not a copy.
func DecodeFrame(buf []byte) (Frame, error) {
	if len(buf) < frameHeader {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrNotControlFrame, len(buf))
	}
	if buf[0] != frameMagic || buf[1] != frameVersion {
		return Frame{}, ErrNotControlFrame
	}
	f := Frame{
		Kind:  FrameKind(buf[2]),
		Flags: buf[3],
		ReqID: binary.BigEndian.Uint32(buf[4:]),
		Trace: binary.BigEndian.Uint64(buf[8:]),
		Body:  buf[frameHeader:],
	}
	if !f.Kind.valid() {
		return Frame{}, fmt.Errorf("protocol: unknown shard-control kind %d", buf[2])
	}
	return f, nil
}

// AssignBody is the ASSIGN request payload: one epoch of the coordinator's
// shard map as it concerns the receiving shard — the sensors it owns,
// and the sensors the coordinator explicitly moved away from it (Evict).
// Eviction is an explicit list rather than "anything not in Sensors" so
// that a sensor auto-joining concurrently with an in-flight ASSIGN is
// never detached by a stale snapshot. The response body is AckBody
// carrying the map version the shard now follows.
type AssignBody struct {
	MapVersion uint64
	ShardIndex uint16 // the receiver's slot in the sorted shard list
	ShardCount uint16
	Sensors    []core.NodeID // sensors the receiver owns (primary or replica)
	Evict      []core.NodeID // sensors the receiver must detach
}

func appendIDs(buf []byte, ids []core.NodeID) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint16(buf, uint16(id))
	}
	return buf
}

func parseIDs(buf []byte) ([]core.NodeID, []byte, error) {
	if len(buf) < 2 {
		return nil, nil, core.ErrTruncated
	}
	count := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < 2*count {
		return nil, nil, core.ErrTruncated
	}
	ids := make([]core.NodeID, count)
	for i := range ids {
		ids[i] = core.NodeID(binary.BigEndian.Uint16(buf[2*i:]))
	}
	return ids, buf[2*count:], nil
}

// Encode serializes the ASSIGN body.
func (b AssignBody) Encode() ([]byte, error) {
	if len(b.Sensors) > 65535 || len(b.Evict) > 65535 {
		return nil, fmt.Errorf("protocol: %d+%d sensors exceed the ASSIGN format", len(b.Sensors), len(b.Evict))
	}
	buf := make([]byte, 0, 8+2+2+2+2*len(b.Sensors)+2+2*len(b.Evict))
	buf = binary.BigEndian.AppendUint64(buf, b.MapVersion)
	buf = binary.BigEndian.AppendUint16(buf, b.ShardIndex)
	buf = binary.BigEndian.AppendUint16(buf, b.ShardCount)
	buf = appendIDs(buf, b.Sensors)
	buf = appendIDs(buf, b.Evict)
	return buf, nil
}

// DecodeAssign parses an ASSIGN body.
func DecodeAssign(buf []byte) (AssignBody, error) {
	if len(buf) < 8+2+2 {
		return AssignBody{}, core.ErrTruncated
	}
	b := AssignBody{
		MapVersion: binary.BigEndian.Uint64(buf),
		ShardIndex: binary.BigEndian.Uint16(buf[8:]),
		ShardCount: binary.BigEndian.Uint16(buf[10:]),
	}
	var err error
	buf = buf[12:]
	if b.Sensors, buf, err = parseIDs(buf); err != nil {
		return AssignBody{}, fmt.Errorf("protocol: ASSIGN sensors: %w", err)
	}
	if b.Evict, buf, err = parseIDs(buf); err != nil {
		return AssignBody{}, fmt.Errorf("protocol: ASSIGN evictions: %w", err)
	}
	if len(buf) != 0 {
		return AssignBody{}, fmt.Errorf("protocol: %d trailing bytes after ASSIGN", len(buf))
	}
	return b, nil
}

// EstimateBody is the ESTIMATE response payload: one fragment of the
// requested window points. FragCount is repeated on every fragment so
// the querier can size its reassembly from whichever fragment arrives
// first. The request body is EncodeEstimateRequest's.
type EstimateBody struct {
	Frag      uint16
	FragCount uint16
	Points    []core.Point
}

// Encode serializes the ESTIMATE body.
func (b EstimateBody) Encode() ([]byte, error) {
	pts, err := core.EncodePoints(b.Points)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 4+len(pts))
	buf = binary.BigEndian.AppendUint16(buf, b.Frag)
	buf = binary.BigEndian.AppendUint16(buf, b.FragCount)
	return append(buf, pts...), nil
}

// DecodeEstimate parses an ESTIMATE body.
func DecodeEstimate(buf []byte) (EstimateBody, error) {
	if len(buf) < 4 {
		return EstimateBody{}, core.ErrTruncated
	}
	b := EstimateBody{
		Frag:      binary.BigEndian.Uint16(buf),
		FragCount: binary.BigEndian.Uint16(buf[2:]),
	}
	pts, err := core.DecodePoints(buf[4:])
	if err != nil {
		return EstimateBody{}, err
	}
	b.Points = pts
	return b, nil
}

// EncodeEstimateRequest serializes an ESTIMATE request: empty for the
// shard's whole window union, or one sensor's 2-byte ID for the points
// that sensor holds of its own.
func EncodeEstimateRequest(sensor core.NodeID) []byte {
	if sensor == 0 {
		return nil
	}
	return binary.BigEndian.AppendUint16(nil, uint16(sensor))
}

// DecodeEstimateRequest parses an ESTIMATE request body; 0 asks for the
// whole window union.
func DecodeEstimateRequest(buf []byte) (core.NodeID, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	if len(buf) == 2 && binary.BigEndian.Uint16(buf) != 0 {
		return core.NodeID(binary.BigEndian.Uint16(buf)), nil
	}
	return 0, fmt.Errorf("protocol: %d-byte ESTIMATE request, want 0 or a nonzero sensor ID", len(buf))
}

// HealthBody is the HEALTH response payload (the request body is empty).
type HealthBody struct {
	MapVersion uint64 // shard-map epoch the shard last adopted
	Sensors    uint16 // sensors currently attached
	Sessions   uint16 // live merge sessions, for the coordinator's /debug/status
}

// Encode serializes the HEALTH body.
func (b HealthBody) Encode() []byte {
	buf := make([]byte, 0, 12)
	buf = binary.BigEndian.AppendUint64(buf, b.MapVersion)
	buf = binary.BigEndian.AppendUint16(buf, b.Sensors)
	return binary.BigEndian.AppendUint16(buf, b.Sessions)
}

// DecodeHealth parses a HEALTH body.
func DecodeHealth(buf []byte) (HealthBody, error) {
	if len(buf) != 12 {
		return HealthBody{}, core.ErrTruncated
	}
	return HealthBody{
		MapVersion: binary.BigEndian.Uint64(buf),
		Sensors:    binary.BigEndian.Uint16(buf[8:]),
		Sessions:   binary.BigEndian.Uint16(buf[10:]),
	}, nil
}

// ReadingsBody is the READINGS payload: a routed ingest batch. Each point
// carries its identity (origin sensor, sequence number derived from its
// birth), its data-time birth, and the feature vector; the hop field is
// unused and must be zero.
type ReadingsBody struct {
	Points []core.Point
}

// Encode serializes the READINGS body.
func (b ReadingsBody) Encode() ([]byte, error) {
	return core.EncodePoints(b.Points)
}

// DecodeReadings parses a READINGS body.
func DecodeReadings(buf []byte) (ReadingsBody, error) {
	pts, err := core.DecodePoints(buf)
	if err != nil {
		return ReadingsBody{}, err
	}
	return ReadingsBody{Points: pts}, nil
}

// SufficientBody is the SUFFICIENT payload, both directions. Sessions
// are identified by a coordinator-chosen 64-bit ID so a retried or
// reordered frame lands in the right exchange. The request names a
// merge session and a round and carries the coordinator's sufficient
// delta for it, split into in-order fragments Frag 0..FragCount-1 when
// it outgrows one frame; the shard answers a non-final fragment with an
// empty one-fragment response. The response to the final fragment
// carries the shard's Eq. (2) sufficient delta for that round, split
// over however many fragments the byte budget requires, FragCount
// repeated on each so the querier can size reassembly from whichever
// arrives first. Rounds are idempotent: points deduplicate by PointID,
// and a shard replays a cached round's delta on retry instead of
// recomputing, so a lost response cannot make the exchange
// double-count.
type SufficientBody struct {
	Session   uint64
	Round     uint16
	Frag      uint16
	FragCount uint16
	Points    []core.Point
}

// Encode serializes the SUFFICIENT body.
func (b SufficientBody) Encode() ([]byte, error) {
	pts, err := core.EncodePoints(b.Points)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 14+len(pts))
	buf = binary.BigEndian.AppendUint64(buf, b.Session)
	buf = binary.BigEndian.AppendUint16(buf, b.Round)
	buf = binary.BigEndian.AppendUint16(buf, b.Frag)
	buf = binary.BigEndian.AppendUint16(buf, b.FragCount)
	return append(buf, pts...), nil
}

// DecodeSufficient parses a SUFFICIENT body.
func DecodeSufficient(buf []byte) (SufficientBody, error) {
	if len(buf) < 14 {
		return SufficientBody{}, core.ErrTruncated
	}
	b := SufficientBody{
		Session:   binary.BigEndian.Uint64(buf),
		Round:     binary.BigEndian.Uint16(buf[8:]),
		Frag:      binary.BigEndian.Uint16(buf[10:]),
		FragCount: binary.BigEndian.Uint16(buf[12:]),
	}
	pts, err := core.DecodePoints(buf[14:])
	if err != nil {
		return SufficientBody{}, err
	}
	b.Points = pts
	return b, nil
}

// AckBody is the ASSIGN and READINGS response payload: the map version
// an ASSIGN left the shard on, or the points a READINGS accepted.
type AckBody struct {
	Count uint64
}

// Encode serializes the ack body.
func (b AckBody) Encode() []byte {
	return binary.BigEndian.AppendUint64(make([]byte, 0, 8), b.Count)
}

// DecodeAck parses an ack body.
func DecodeAck(buf []byte) (AckBody, error) {
	if len(buf) != 8 {
		return AckBody{}, core.ErrTruncated
	}
	return AckBody{Count: binary.BigEndian.Uint64(buf)}, nil
}
