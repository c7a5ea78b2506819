package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"innet/internal/core"
)

// FuzzParseDatagram throws arbitrary payloads at the UDP front door's
// parser. It must not panic; its readings must be exactly, and in order,
// the lines ParseLine accepts, with malformed counting the rest — a
// payload that fills its buffer loses everything after its last newline
// as one malformed tail; and a reading formatted as the smoke scripts
// write it, "<sensor> <at_ms> <v…>", must round-trip.
func FuzzParseDatagram(f *testing.F) {
	f.Add([]byte("1 1000 20.5\n2 1000 21 22\n"), false, uint16(7), int64(1000), 55.3, -1.5)
	f.Add([]byte("1 1000 20.5\n2 1000 21\n2 10"), true, uint16(1), int64(0), 0.0, 0.0)
	f.Add([]byte(fmt.Sprintf("7 %d 20.5\n7 %d 20.5\n", maxAtMS, maxAtMS+1)), false, uint16(65535), maxAtMS, 1e300, math.Inf(-1))
	f.Add([]byte("x\n\n  \n7 -1 1\n3 5"), true, uint16(3), maxAtMS+1, math.NaN(), 2.0)
	f.Add([]byte(`{"readings":[{"sensor":1,"at_ms":5,"values":[1]}]} garbage`), false, uint16(1), int64(-1), 1.0, 1.0)

	f.Fuzz(func(t *testing.T, payload []byte, cut bool, sensor uint16, atMS int64, v1, v2 float64) {
		buf := append(append([]byte(nil), payload...), 0) // room to spare: not cut
		if cut {
			buf = payload // the read filled the buffer
		}
		got, malformed := ParseDatagram(buf, len(payload))

		lines := bytes.SplitAfter(payload, []byte{'\n'})
		wantMalformed := 0
		if cut {
			lines = lines[:len(lines)-1] // the unterminated tail, possibly empty
			wantMalformed++
		}
		var want []Reading
		for _, line := range lines {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			if r, err := ParseLine(line); err == nil {
				want = append(want, r)
			} else {
				wantMalformed++
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || malformed != wantMalformed {
			t.Fatalf("ParseDatagram(%q, cut=%v) = %v, %d malformed; want %v, %d", payload, cut, got, malformed, want, wantMalformed)
		}

		line := fmt.Sprintf("%d %d %s %s\n", sensor, atMS,
			strconv.FormatFloat(v1, 'g', -1, 64), strconv.FormatFloat(v2, 'g', -1, 64))
		got, malformed = ParseDatagram(append([]byte(line), 0), len(line))
		if atMS < 0 || atMS > maxAtMS {
			if len(got) != 0 || malformed != 1 {
				t.Fatalf("%q: got %v, %d malformed; want the line refused", line, got, malformed)
			}
			return
		}
		if len(got) != 1 || malformed != 0 {
			t.Fatalf("%q: got %v, %d malformed; want one reading", line, got, malformed)
		}
		r := got[0]
		if r.Sensor != core.NodeID(sensor) || r.At != time.Duration(atMS)*time.Millisecond ||
			len(r.Values) != 2 || !sameFloat(r.Values[0], v1) || !sameFloat(r.Values[1], v2) {
			t.Fatalf("%q round-tripped to %+v", line, r)
		}
	})
}

// sameFloat is == with NaN equal to NaN: the text format has one NaN.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// FuzzDecodeBatch throws arbitrary bodies at the HTTP front door's batch
// decoder. It must not panic, and a batch it accepts must be one JSON
// value whose every at_ms lies in [0, maxAtMS] and became the reading's
// data time exactly.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"readings":[{"sensor":1,"at_ms":5,"values":[1]}]}`))
	f.Add([]byte(`{"readings":[{"sensor":1,"at_ms":5,"values":[1]}]} garbage`))
	f.Add([]byte(`{"readings":[{"sensor":1,"at_ms":5,"values":[1]}]}{"readings":[{"sensor":1,"at_ms":6,"values":[2]}]}`))
	f.Add([]byte(fmt.Sprintf(`{"readings":[{"sensor":1,"at_ms":%d,"values":[20]}]}`, maxAtMS)))
	f.Add([]byte(fmt.Sprintf(`{"readings":[{"sensor":1,"at_ms":%d,"values":[20]}]}`, maxAtMS+1)))
	f.Add([]byte(`{"readings":[{"sensor":1,"at_ms":-1,"values":[20]}]}` + "\n\t "))
	f.Add([]byte(`{"readings": [{]`))

	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest("POST", "/v1/observations", bytes.NewReader(body))
		readings, err := DecodeBatch(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		var batch WireBatch
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatalf("accepted %q, which is not one JSON batch: %v", body, err)
		}
		if len(batch.Readings) != len(readings) {
			t.Fatalf("accepted %q as %d readings, it holds %d", body, len(readings), len(batch.Readings))
		}
		for i, wr := range batch.Readings {
			if wr.AtMS < 0 || wr.AtMS > maxAtMS || readings[i].At != time.Duration(wr.AtMS)*time.Millisecond {
				t.Fatalf("accepted at_ms %d as data time %v", wr.AtMS, readings[i].At)
			}
		}
	})
}
