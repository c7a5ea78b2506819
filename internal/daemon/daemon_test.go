package daemon

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"sync"
	"testing"

	"innet/internal/store"
)

func quiet() *slog.Logger { return slog.New(slog.DiscardHandler) }

func localFlags(t *testing.T) Flags {
	return Flags{HTTP: "127.0.0.1:0", UDP: "127.0.0.1:0", DebugAddr: "127.0.0.1:0", DataDir: t.TempDir()}
}

// TestShutdownOrder: listeners stop in serving order with the command's
// own last, then the deferred steps run last-deferred first, then the
// store closes.
func TestShutdownOrder(t *testing.T) {
	var mu sync.Mutex
	var got []string
	note := func(s string) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	}
	var st store.Store
	sh, err := Open(localFlags(t), quiet(), func(sh *Shell) error {
		st = sh.Store()
		sh.Defer(func(context.Context) error { note("engine closed"); return nil })
		serveUDP := func(conn net.PacketConn) error {
			_, _, err := conn.ReadFrom(make([]byte, 1))
			note("udp returned")
			return err
		}
		if err := sh.Listen(http.NotFoundHandler(), serveUDP); err != nil {
			return err
		}
		stop := make(chan struct{})
		sh.Add("extra", "nowhere", func() error { <-stop; note("extra returned"); return net.ErrClosed },
			func() error { close(stop); return nil })
		sh.Defer(func(context.Context) error { note("compacted"); return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"http", "debug", "udp", "extra"} {
		if sh.Addr(name) == "" {
			t.Errorf("no %s listener", name)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sh.Serve(ctx); err != nil {
		t.Fatalf("Serve = %v, want nil", err)
	}
	want := []string{"udp returned", "extra returned", "compacted", "engine closed"}
	if !slices.Equal(got, want) {
		t.Errorf("shutdown order %q, want %q", got, want)
	}
	if err := st.AppendReadings([]store.Record{{Sensor: 1, Values: []float64{1}}}); err == nil {
		t.Error("store still open after Serve returned")
	}
}

// TestOpenFailureReleasesEverything: a build that fails after binding
// leaves no socket bound and no store open.
func TestOpenFailureReleasesEverything(t *testing.T) {
	boom := errors.New("boom")
	var st store.Store
	var httpAddr, udpAddr string
	_, err := Open(localFlags(t), quiet(), func(sh *Shell) error {
		st = sh.Store()
		if err := sh.Listen(http.NotFoundHandler(), func(net.PacketConn) error { return nil }); err != nil {
			return err
		}
		httpAddr, udpAddr = sh.Addr("http"), sh.Addr("udp")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Open = %v, want the build error", err)
	}
	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		t.Errorf("HTTP port still bound: %v", err)
	} else {
		ln.Close()
	}
	conn, err := net.ListenPacket("udp", udpAddr)
	if err != nil {
		t.Errorf("UDP port still bound: %v", err)
	} else {
		conn.Close()
	}
	if err := st.AppendReadings([]store.Record{{Sensor: 1, Values: []float64{1}}}); err == nil {
		t.Error("store still open after a failed Open")
	}
}

// TestSinksAbsentWithoutFlags: without -data-dir and -trace-file the
// engine sees no store and no span sink at all — not typed nils.
func TestSinksAbsentWithoutFlags(t *testing.T) {
	sh, err := Open(Flags{}, quiet(), func(*Shell) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if sh.Store() != nil || sh.TraceSink() != nil {
		t.Errorf("Store() = %v, TraceSink() = %v; want untyped nils", sh.Store(), sh.TraceSink())
	}
}
