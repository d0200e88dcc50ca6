#!/usr/bin/env bash
# lint.sh — the repository's static-analysis gate, runnable locally and in
# CI: one consolidated `go vet` over the whole module, then dpvet (the
# domain analyzers in internal/analysis), then both again inside the
# separate dpbench module, then govulncheck when the tool is installed.
# The dpvet JSON report of the main module (findings AND suppressions,
# even when empty) lands at ${DPVET_REPORT:-dpvet-report.json} so CI can
# upload it unconditionally as the audit artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

report="${DPVET_REPORT:-dpvet-report.json}"

echo "==> go vet ./..."
go vet ./...

echo "==> dpvet ./...  (report: ${report})"
go run ./cmd/dpvet -json "${report}" ./...

# dpbench is its own module (it replaces repro with ../), so ./... above
# does not reach it.
echo "==> dpbench: go vet ./... && dpvet ./..."
(cd dpbench && go vet ./... && go run repro/cmd/dpvet ./...)

if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck ./..."
  govulncheck ./...
else
  echo "==> govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "lint: clean"
