package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"innet/internal/core"
)

func startHTTP(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := newService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("%s %s: decode response: %v", method, url, err)
	}
	return resp.StatusCode, decoded
}

func TestHTTPObservationsBatch(t *testing.T) {
	cfg := testConfig()
	cfg.AutoJoin = true
	s, srv := startHTTP(t, cfg)

	// A mixed batch: four good readings (one the planted outlier), one
	// malformed (empty values).
	status, body := doJSON(t, "POST", srv.URL+"/v1/observations", `{"readings":[
		{"sensor":1,"at_ms":1000,"values":[20.0]},
		{"sensor":2,"at_ms":1000,"values":[20.2]},
		{"sensor":3,"at_ms":1000,"values":[55.3]},
		{"sensor":4,"at_ms":1000,"values":[19.9]},
		{"sensor":5,"at_ms":1000,"values":[]}
	]}`)
	if status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", status)
	}
	if got := body["accepted"].(float64); got != 4 {
		t.Fatalf("accepted = %v, want 4", got)
	}
	rejected := body["rejected"].([]any)
	if len(rejected) != 1 || rejected[0].(map[string]any)["index"].(float64) != 4 {
		t.Fatalf("rejected = %v, want index 4", rejected)
	}
	mustFlush(t, s)

	status, est := doJSON(t, "GET", srv.URL+"/v1/outliers?sensor=2", "")
	if status != http.StatusOK {
		t.Fatalf("outliers status %d, want 200", status)
	}
	outliers := est["outliers"].([]any)
	if len(outliers) != 1 {
		t.Fatalf("outliers = %v, want exactly the planted fault", outliers)
	}
	if o := outliers[0].(map[string]any); o["sensor"].(float64) != 3 || o["values"].([]any)[0].(float64) != 55.3 {
		t.Fatalf("outlier = %v, want sensor 3 value 55.3", o)
	}

	// Default sensor selection: lowest attached ID answers.
	if status, est = doJSON(t, "GET", srv.URL+"/v1/outliers", ""); status != http.StatusOK || est["sensor"].(float64) != 1 {
		t.Fatalf("default outliers: status %d body %v, want sensor 1", status, est)
	}
}

func TestHTTPMalformedBody(t *testing.T) {
	s, srv := startHTTP(t, testConfig())
	status, _ := doJSON(t, "POST", srv.URL+"/v1/observations", `{"readings": [{]`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	if got := s.Stats().Malformed; got != 1 {
		t.Fatalf("Malformed = %d, want 1", got)
	}
	// A batch that is entirely rejected is a client error too.
	status, _ = doJSON(t, "POST", srv.URL+"/v1/observations", `{"readings":[{"sensor":7,"at_ms":0,"values":[1]}]}`)
	if status != http.StatusBadRequest { // AutoJoin off: unknown sensor
		t.Fatalf("all-rejected batch status %d, want 400", status)
	}
	if err := s.Join(1); err != nil {
		t.Fatal(err)
	}
	// One batch object is the whole body: trailing garbage or a second
	// batch fails it, as an unparseable body does, though the first
	// object alone would be admitted.
	for i, body := range []string{
		`{"readings":[{"sensor":1,"at_ms":5,"values":[1]}]} garbage`,
		`{"readings":[{"sensor":1,"at_ms":5,"values":[1]}]}{"readings":[{"sensor":1,"at_ms":6,"values":[2]}]}`,
	} {
		if status, _ := doJSON(t, "POST", srv.URL+"/v1/observations", body); status != http.StatusBadRequest {
			t.Fatalf("trailing data %d: status %d, want 400", i, status)
		}
		if got := s.Stats().Malformed; got != uint64(2+i) {
			t.Fatalf("trailing data %d: Malformed = %d, want %d", i, got, 2+i)
		}
	}
	// One out-of-range timestamp fails the whole batch, as an unparseable
	// body does: it would wrap into a valid-looking data time.
	for i, atMS := range []string{"20000000000000", fmt.Sprint(maxAtMS + 1), "-9223372036854775"} {
		body := `{"readings":[{"sensor":1,"at_ms":1000,"values":[20]},{"sensor":1,"at_ms":` + atMS + `,"values":[55.3]}]}`
		if status, _ := doJSON(t, "POST", srv.URL+"/v1/observations", body); status != http.StatusBadRequest {
			t.Fatalf("at_ms %s: status %d, want 400", atMS, status)
		}
		if got := s.Stats().Malformed; got != uint64(4+i) {
			t.Fatalf("at_ms %s: Malformed = %d, want %d", atMS, got, 4+i)
		}
	}
	if got := s.Stats().Accepted; got != 0 {
		t.Fatalf("Accepted = %d after out-of-range batches, want 0", got)
	}
	// The boundary value is exact and accepted.
	body := `{"readings":[{"sensor":1,"at_ms":` + fmt.Sprint(maxAtMS) + `,"values":[20]}]}`
	if status, _ := doJSON(t, "POST", srv.URL+"/v1/observations", body); status != http.StatusAccepted {
		t.Fatalf("at_ms %d: status %d, want 202", maxAtMS, status)
	}
}

func TestHTTPJoinLeave(t *testing.T) {
	_, srv := startHTTP(t, testConfig())

	if status, _ := doJSON(t, "POST", srv.URL+"/v1/sensors/12", ""); status != http.StatusCreated {
		t.Fatalf("join status %d, want 201", status)
	}
	if status, _ := doJSON(t, "POST", srv.URL+"/v1/sensors/12", ""); status != http.StatusConflict {
		t.Fatalf("dup join status %d, want 409", status)
	}
	status, body := doJSON(t, "GET", srv.URL+"/v1/sensors", "")
	if status != http.StatusOK || len(body["sensors"].([]any)) != 1 {
		t.Fatalf("sensors listing: status %d body %v", status, body)
	}
	if status, _ := doJSON(t, "DELETE", srv.URL+"/v1/sensors/12", ""); status != http.StatusOK {
		t.Fatalf("leave status %d, want 200", status)
	}
	if status, _ := doJSON(t, "DELETE", srv.URL+"/v1/sensors/12", ""); status != http.StatusNotFound {
		t.Fatalf("dup leave status %d, want 404", status)
	}
	if status, _ := doJSON(t, "POST", srv.URL+"/v1/sensors/notanumber", ""); status != http.StatusBadRequest {
		t.Fatalf("bad id join status %d, want 400", status)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	cfg := testConfig()
	cfg.AutoJoin = true
	s, srv := startHTTP(t, cfg)
	if err := s.Ingest(Reading{Sensor: 1, At: at(1), Values: []float64{20}}); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, s)

	status, health := doJSON(t, "GET", srv.URL+"/healthz", "")
	if status != http.StatusOK || health["status"] != "ok" || health["sensors"].(float64) != 1 {
		t.Fatalf("healthz: status %d body %v", status, health)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		"innetd_readings_accepted_total 1",
		"innetd_readings_observed_total 1",
		"innetd_sensors 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q in:\n%s", want, metrics)
		}
	}
}

// TestUDPLineProtocol drives the firehose path end to end: a burst of
// good lines (with a planted outlier), malformed lines that must be
// counted and skipped, and a clean listener shutdown.
func TestUDPLineProtocol(t *testing.T) {
	cfg := testConfig()
	cfg.AutoJoin = true
	s := newService(t, cfg)

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeUDP(pc) }()

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var lines []string
	for i := 1; i <= 5; i++ {
		lines = append(lines, fmt.Sprintf("%d 60000 %0.1f", i, 20+float64(i)*0.1))
	}
	lines = append(lines,
		"7 61000 55.3",    // the outlier
		"",                // blank: ignored
		"banana 1000 2.0", // malformed sensor
		"3 notatime 2.0",  // malformed timestamp
		"3 62000 carrot",  // malformed value
		"3",               // too few fields
	)
	if _, err := conn.Write([]byte(strings.Join(lines, "\n"))); err != nil {
		t.Fatal(err)
	}

	// UDP delivery is asynchronous: wait for the readings to land.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Observed < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	mustFlush(t, s)

	if got := s.Stats().Malformed; got != 4 {
		t.Errorf("Malformed = %d, want 4", got)
	}
	est, err := s.Estimate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 1 || est[0].Value[0] != 55.3 {
		t.Fatalf("estimate %v, want the 55.3 outlier", est)
	}

	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("ServeUDP returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUDP did not return after the socket closed")
	}
}

// TestParseDatagram pins the one datagram parser both UDP front doors
// share: line order kept, bad lines counted not fatal, and a read that
// fills the buffer — the kernel's truncation sentinel — loses everything
// past its last complete line, counted once, so a line cut mid-field is
// never parsed as a (wrong) reading.
func TestParseDatagram(t *testing.T) {
	buf := make([]byte, 64)
	n := copy(buf, "1 1000 20.5\n\nbanana 1 2\n2 2000 21 3.5\n")
	rs, malformed := ParseDatagram(buf, n)
	if malformed != 1 || len(rs) != 2 || rs[0].Sensor != 1 || rs[1].Sensor != 2 ||
		rs[1].At != 2*time.Second || len(rs[1].Values) != 2 {
		t.Fatalf("got %+v with %d malformed, want sensors 1,2 and 1 malformed", rs, malformed)
	}

	full := []byte("1 1000 20.5\n2 2000 21.5\n3 3000 22")
	rs, malformed = ParseDatagram(full, len(full)) // "3 3000 22" may be a cut "3 3000 22.9"
	if malformed != 1 || len(rs) != 2 || rs[1].Sensor != 2 {
		t.Fatalf("buffer-filling read: got %+v with %d malformed, want the 2 complete lines and 1 malformed", rs, malformed)
	}
	oneLine := []byte("3 3000 22")
	if rs, malformed = ParseDatagram(oneLine, len(oneLine)); malformed != 1 || len(rs) != 0 {
		t.Fatalf("buffer-filling read without a newline: got %+v with %d malformed, want nothing and 1", rs, malformed)
	}

	// A timestamp whose Duration would overflow, or a negative one that
	// would wrap positive, is malformed; the largest exact one is not.
	wrap := fmt.Sprintf("7 20000000000000 55.3\n7 %d 55.3\n7 -9223372036854775 55.3\n7 %d 20.5\n", maxAtMS+1, maxAtMS)
	buf = make([]byte, 256)
	n = copy(buf, wrap)
	rs, malformed = ParseDatagram(buf, n)
	if malformed != 3 || len(rs) != 1 || rs[0].At != time.Duration(maxAtMS)*time.Millisecond {
		t.Fatalf("out-of-range timestamps: got %+v with %d malformed, want the boundary reading and 3 malformed", rs, malformed)
	}
	for _, line := range []string{"7 20000000000000 55.3", "7 -1 55.3"} {
		if _, err := ParseLine([]byte(line)); !errors.Is(err, ErrBadReading) {
			t.Fatalf("ParseLine(%q) = %v, want ErrBadReading", line, err)
		}
	}
}

// TestServeUDPReturnsOnServiceClose pins the documented shutdown path:
// closing the service must end ServeUDP even when the socket is quiet.
func TestServeUDPReturnsOnServiceClose(t *testing.T) {
	s := newService(t, testConfig())
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeUDP(pc) }()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("ServeUDP returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUDP did not return after the service closed")
	}
}

// TestRepeatedReadingIsANoOp: a reading delivered twice — a retried POST,
// a duplicated datagram — names one point. The second copy is observed
// and counted as a repeat, and neither the window nor the answer moves.
// (Were it a second point, the outlier's copy would be its nearest
// neighbour at distance 0 and the outlier would leave the answer.)
func TestRepeatedReadingIsANoOp(t *testing.T) {
	lines := []string{"1 1000 20", "2 2000 20", "3 3000 20", "1 4000 20", "3 5000 20", "2 9000 90"}
	for _, door := range []string{"http", "udp"} {
		t.Run(door, func(t *testing.T) {
			cfg := testConfig()
			cfg.AutoJoin = true
			s := newService(t, cfg)
			send := lineSender(t, s, door)
			state := func() ([]core.Point, []core.Point) {
				t.Helper()
				mustFlush(t, s)
				window, err := s.Snapshot(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				answer, err := s.Estimate(1)
				if err != nil {
					t.Fatal(err)
				}
				return window, answer
			}

			send(lines...)
			window, answer := state()
			if len(window) != len(lines) || len(answer) != 1 || answer[0].Value[0] != 90 {
				t.Fatalf("before the repeat: window %v, answer %v; want %d points and the 90", window, answer, len(lines))
			}
			send(lines[len(lines)-1])
			again, answerAgain := state()
			if !reflect.DeepEqual(again, window) || !reflect.DeepEqual(answerAgain, answer) {
				t.Fatalf("the repeat moved the fleet: window %v -> %v, answer %v -> %v", window, again, answer, answerAgain)
			}
			if st := s.Stats(); st.Observed != uint64(len(lines))+1 || st.Repeated != 1 {
				t.Fatalf("Observed %d, Repeated %d; want %d and 1", st.Observed, st.Repeated, len(lines)+1)
			}
		})
	}
}

// lineSender returns a function that delivers line-protocol readings to
// s through the named front door ("http" or "udp") and returns once the
// service has accepted them.
func lineSender(t *testing.T, s *Service, door string) func(lines ...string) {
	t.Helper()
	if door == "http" {
		srv := httptest.NewServer(s.Handler())
		t.Cleanup(srv.Close)
		return func(lines ...string) {
			t.Helper()
			var batch []string
			for _, l := range lines {
				r, err := ParseLine([]byte(l))
				if err != nil {
					t.Fatal(err)
				}
				batch = append(batch, fmt.Sprintf(`{"sensor":%d,"at_ms":%d,"values":[%g]}`, r.Sensor, r.At.Milliseconds(), r.Values[0]))
			}
			status, _ := doJSON(t, "POST", srv.URL+"/v1/observations", `{"readings":[`+strings.Join(batch, ",")+`]}`)
			if status != http.StatusAccepted {
				t.Fatalf("POST status %d, want 202", status)
			}
		}
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go s.ServeUDP(pc)
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return func(lines ...string) {
		t.Helper()
		want := s.Stats().Accepted + uint64(len(lines))
		if _, err := conn.Write([]byte(strings.Join(lines, "\n"))); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.Stats().Accepted < want {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d accepted readings: %+v", want, s.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
}
