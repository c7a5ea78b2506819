package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"innet/internal/core"
	"innet/internal/protocol"
)

// bodyCodec is one shard-control body decoder paired with its encoder.
type bodyCodec struct {
	name   string
	recode func(body []byte) (reencoded []byte, decoded bool, err error)
}

func codec[B any](name string, decode func([]byte) (B, error), encode func(B) ([]byte, error)) bodyCodec {
	return bodyCodec{name: name, recode: func(body []byte) ([]byte, bool, error) {
		b, err := decode(body)
		if err != nil {
			return nil, false, nil
		}
		enc, err := encode(b)
		return enc, true, err
	}}
}

var bodyCodecs = []bodyCodec{
	codec("ASSIGN", protocol.DecodeAssign, protocol.AssignBody.Encode),
	codec("ESTIMATE request", protocol.DecodeEstimateRequest, func(s core.NodeID) ([]byte, error) { return protocol.EncodeEstimateRequest(s), nil }),
	codec("ESTIMATE", protocol.DecodeEstimate, protocol.EstimateBody.Encode),
	codec("READINGS", protocol.DecodeReadings, protocol.ReadingsBody.Encode),
	codec("SUFFICIENT", protocol.DecodeSufficient, protocol.SufficientBody.Encode),
	codec("HEALTH", protocol.DecodeHealth, func(b protocol.HealthBody) ([]byte, error) { return b.Encode(), nil }),
	codec("ack", protocol.DecodeAck, func(b protocol.AckBody) ([]byte, error) { return b.Encode(), nil }),
}

// FuzzShardCtl fuzzes everything that parses unauthenticated
// shard-control bytes: protocol.DecodeFrame, every body decoder, and the
// length-prefixed stream reader. Each input is decoded as one frame, and
// first‖second is read as a stream. Decoders must reject or accept,
// never panic; whatever they accept must re-encode to exactly the input
// bytes (every field is fixed-width, so the format has no redundant
// representations); and the stream reader must return whole frames, each
// exactly the bytes its prefix names, until it returns an error — at a
// prefix over the cap, errFrameTooLarge, before reading any further
// (TestReadFrameRefusesOversizePrefix pins that it allocates nothing).
func FuzzShardCtl(f *testing.F) {
	f.Fuzz(func(t *testing.T, first, second []byte) {
		for _, raw := range [][]byte{first, second} {
			if fr, err := protocol.DecodeFrame(raw); err == nil {
				checkFrame(t, fr, raw)
			}
		}

		stream := append(append([]byte(nil), first...), second...)
		r := bytes.NewReader(stream)
		for {
			at := len(stream) - r.Len()
			fr, err := readFrame(r)
			rest := stream[at:]
			if err != nil {
				if len(rest) >= 4 && binary.BigEndian.Uint32(rest) > maxFrameLen && !errors.Is(err, errFrameTooLarge) {
					t.Fatalf("prefix %#x over the cap read as %v, want errFrameTooLarge", rest[:4], err)
				}
				break
			}
			n := int(binary.BigEndian.Uint32(rest))
			if read := len(stream) - r.Len() - at; read != 4+n {
				t.Fatalf("frame of %d bytes consumed %d stream bytes", n, read)
			}
			checkFrame(t, fr, rest[4:4+n])
		}
	})
}

// checkFrame holds a decoded frame, and each body decoder's reading of
// its body, to re-encoding byte for byte as raw.
func checkFrame(t *testing.T, fr protocol.Frame, raw []byte) {
	t.Helper()
	if enc := protocol.EncodeFrame(fr); !bytes.Equal(enc, raw) {
		t.Fatalf("frame round-trip not identity:\nin  %x\nout %x", raw, enc)
	}
	for _, c := range bodyCodecs {
		enc, ok, err := c.recode(fr.Body)
		if !ok {
			continue
		}
		if err != nil {
			t.Fatalf("decoded %s body failed to re-encode: %v", c.name, err)
		}
		if !bytes.Equal(enc, fr.Body) {
			t.Fatalf("%s body round-trip not identity:\nin  %x\nout %x", c.name, fr.Body, enc)
		}
	}
}
