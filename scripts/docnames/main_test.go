package main

import (
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

func TestStaleRefs(t *testing.T) {
	const src = `package peer

type Peer struct{ id int }

func (p *Peer) handle() {}

func New() *Peer { return nil }

var ErrStopped error
`
	f, err := parser.ParseFile(token.NewFileSet(), "peer.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	collect(f, names)
	decls := map[string]map[string]bool{"peer": names}

	for line, want := range map[string][]string{
		"`peer.handlePacket` (decode)":                       {"peer.handlePacket"},
		"`peer.Peer.handle`, `peer.New`, `peer.ErrStopped`":  nil,
		"`peer.Peer.id` and `peer.Peer.Receive(x)`":          {"peer.Peer.Receive"},
		"`peer.broadcasts_per_reading` is a metric":          nil,
		"`internal/peer/peer.go`, `peer.go`, `mypeer.Thing`": nil,
		"`core.Anything` names a package this map lacks":     nil,
		"plain peer.handlePacket outside a code span":        nil,
		"`peer.New(peer.Config{})` then `peer.Gone` in one":  {"peer.Config", "peer.Gone"},
	} {
		if got := staleRefs(line, decls); !slices.Equal(got, want) {
			t.Errorf("%s: stale %q, want %q", line, got, want)
		}
	}
}
