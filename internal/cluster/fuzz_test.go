package cluster

import (
	"bytes"
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

// FuzzShardCtl fuzzes everything that parses an unauthenticated
// shard-control datagram: protocol.DecodeFrame, every body decoder, and
// the client's fragment reassembly. Two datagrams are fed in sequence, as
// the two halves of a fragmented response would arrive. Decoders must
// reject or accept, never panic; whatever they accept must re-encode to
// exactly the input bytes (every field is fixed-width, so the format has
// no redundant representations); and a fragment set that reports itself
// complete must hold every index of exactly one response.
func FuzzShardCtl(f *testing.F) {
	f.Fuzz(func(t *testing.T, first, second []byte) {
		var parsers []fragmentParse
		var sets []*reassembly
		for _, dgram := range [][]byte{first, second} {
			fr, err := protocol.DecodeFrame(dgram)
			if err != nil {
				continue
			}
			if enc := protocol.EncodeFrame(fr); !bytes.Equal(enc, dgram) {
				t.Fatalf("frame round-trip not identity:\nin  %x\nout %x", dgram, enc)
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

			// Reassembly, keyed the way a real exchange would be: on the
			// session/round the first decodable frame names.
			if parsers == nil {
				var session uint64
				var round uint16
				if b, err := protocol.DecodeSufficient(fr.Body); err == nil {
					session, round = b.Session, b.Round
				}
				parsers = []fragmentParse{estimateFragment, sufficientFragment(session, round)}
				sets = []*reassembly{{}, {}}
			}
			for i, parse := range parsers {
				frag, total, pts, ok, err := parse(fr)
				if err != nil || !ok {
					continue
				}
				if !sets[i].add(frag, total, pts, len(fr.Body)) {
					continue
				}
				wantPts, wantBytes := 0, 0
				for idx := 0; idx < sets[i].total; idx++ {
					held, present := sets[i].frags[idx]
					if !present {
						t.Fatalf("set of %d reported complete without fragment %d", sets[i].total, idx)
					}
					wantPts += len(held)
					wantBytes += sets[i].bytes[idx]
				}
				joined, n := sets[i].join()
				if len(joined) != wantPts || n != wantBytes {
					t.Fatalf("join returned %d points / %d bytes, fragments hold %d / %d", len(joined), n, wantPts, wantBytes)
				}
			}
		}
	})
}
