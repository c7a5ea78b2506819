package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"testing"
)

// TestFlagsGolden pins every flag's name, default and usage string: the
// -h page, byte for byte, against testdata/flags.golden. A failure prints
// the new page; a flag change that is not meant to happen must not be
// pasted into the golden to make it pass.
func TestFlagsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := helpPage(t); got != string(want) {
		t.Errorf("-h page differs from testdata/flags.golden; got:\n%s", got)
	}
}

// helpPage returns what -h prints. The flag set writes it to os.Stderr,
// so the test swaps a pipe in for the call (the page fits the pipe's
// buffer, so the write cannot block before the read).
func helpPage(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stderr := os.Stderr
	os.Stderr = w
	_, perr := parseFlags([]string{"-h"})
	os.Stderr = stderr
	w.Close()
	if !errors.Is(perr, flag.ErrHelp) {
		t.Fatalf("parseFlags(-h) = %v, want flag.ErrHelp", perr)
	}
	page, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(page)
}
