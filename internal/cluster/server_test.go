package cluster

import (
	"context"
	"log/slog"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/protocol"
)

// recordingHandler is a slog.Handler that keeps every record.
type recordingHandler struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler            { return h }

func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, r.Clone())
	return nil
}

// logged returns the records with the given message, each as its attrs.
func (h *recordingHandler) logged(level slog.Level, msg string) []map[string]slog.Value {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []map[string]slog.Value
	for _, r := range h.records {
		if r.Level == level && r.Message == msg {
			attrs := make(map[string]slog.Value)
			r.Attrs(func(a slog.Attr) bool { attrs[a.Key] = a.Value; return true })
			out = append(out, attrs)
		}
	}
	return out
}

// TestAssignLogsOnlyAnAdoptedEpoch: a shard logs "ASSIGN adopted" once
// per map version it adopts, with the evictions it ran (a sensor it never
// attached is not one), and nothing for a repeat of a version it holds,
// which is what every shard sees from a restarted coordinator.
func TestAssignLogsOnlyAnAdoptedEpoch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Join(3); err != nil {
		t.Fatal(err)
	}
	logs := &recordingHandler{}
	srv, err := NewShardServer(ShardServerConfig{Service: svc, Addr: "127.0.0.1:0", Logger: slog.New(logs)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()
	client := newCtlClient()
	defer client.close()
	addr := srv.Addr()

	assign := func(version uint64, evict ...core.NodeID) {
		t.Helper()
		body := protocol.AssignBody{MapVersion: version, ShardCount: 1, Sensors: []core.NodeID{1, 2}, Evict: evict}
		if _, err := client.assign(ctx, addr, body); err != nil {
			t.Fatal(err)
		}
	}
	assign(1, 3, 4) // 3 is attached, 4 never was
	assign(1, 3, 4) // the same epoch again: adopts and evicts nothing
	adopted := logs.logged(slog.LevelInfo, "ASSIGN adopted")
	if len(adopted) != 1 {
		t.Fatalf("%d \"ASSIGN adopted\" records after one epoch sent twice, want 1", len(adopted))
	}
	if got := adopted[0]["evictions"].Int64(); got != 1 {
		t.Errorf("adopted ASSIGN logged evictions=%d, want 1 (sensor 4 was never attached)", got)
	}
	assign(2, 1)
	adopted = logs.logged(slog.LevelInfo, "ASSIGN adopted")
	if len(adopted) != 2 || adopted[1]["map_version"].Uint64() != 2 || adopted[1]["evictions"].Int64() != 1 {
		t.Errorf("after a newer epoch, \"ASSIGN adopted\" records %v, want a second one for version 2 with 1 eviction", adopted)
	}
}
