#!/usr/bin/env bash
# Static checks: go vet over every package, gofmt, a check that every
# test a CI step selects by name, and every test, fuzzer, benchmark or
# example DESIGN.md and README.md name, exists, a check that every `pkg.Name`
# DESIGN.md and README.md give an internal package is declared there
# (scripts/docnames), a check that the shared daemon
# shell does not import the store, plus govulncheck when the
# tool is on PATH (CI installs it; locally it is optional, since the
# sandbox may have no network to fetch it). New wire-protocol fields
# must pass vet's unreachable/unused analysis on both the encode and
# decode paths before they can ship.
#
# Usage: scripts/lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== gofmt"
UNFORMATTED=$(gofmt -l . 2>/dev/null || true)
if [[ -n "$UNFORMATTED" ]]; then
  echo "gofmt needed on:" >&2
  echo "$UNFORMATTED" >&2
  exit 1
fi

# A -run regex that matches nothing passes silently ("no tests to run"),
# and so does a -fuzz name that matches nothing ("no fuzz tests to
# fuzz"), so renaming a test or fuzzer CI names would drop it from CI
# without a failure.
echo "== tests and fuzzers named in ci.yml, and tests the docs name, exist"
DEFINED=$(go test -list '^(Test|Fuzz|Benchmark|Example)' ./... | grep -E '^(Test|Fuzz|Benchmark|Example)' | sort -u)
MISSING=0
for name in $(grep -oE -- "-(run|fuzz)[ =]('[^']*'|[^ ]+)" .github/workflows/ci.yml | grep -oE '(Test|Fuzz)[A-Za-z0-9_]+' | sort -u); do
  if ! grep -qx "$name" <<<"$DEFINED"; then
    echo "ci.yml runs $name, which no package defines" >&2
    MISSING=1
  fi
done
# A doc that names a test sends its reader to a check that may be gone.
for doc in DESIGN.md README.md; do
  for name in $(grep -oE '\b(Test|Fuzz|Benchmark|Example)[A-Z_][A-Za-z0-9_]*' "$doc" | sort -u); do
    if ! grep -qx "$name" <<<"$DEFINED"; then
      echo "$doc names $name, which no package defines" >&2
      MISSING=1
    fi
  done
done
if [[ $MISSING -ne 0 ]]; then
  exit 1
fi

# A doc that names a function, type or field that was renamed or deleted
# sends its reader looking for code that is not there.
echo "== names the docs give internal packages exist"
go run ./scripts/docnames DESIGN.md README.md

# The shell both daemons share holds no durable state: the store is
# innetd's alone, opened and closed in cmd/innetd.
echo "== internal/daemon does not import internal/store"
if go list -deps ./internal/daemon | grep -qx 'innet/internal/store'; then
  echo "internal/daemon depends on innet/internal/store; open the store in cmd/innetd" >&2
  exit 1
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck"
  govulncheck ./...
else
  echo "== govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "lint: OK"
