package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
