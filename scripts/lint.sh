#!/usr/bin/env bash
# Static checks: go vet over every package, plus govulncheck when the
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

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck"
  govulncheck ./...
else
  echo "== govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "lint: OK"
