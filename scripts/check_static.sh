#!/usr/bin/env bash
# Static-analysis gate: dpvet (the repo's five privacy/perf analyzers)
# plus pinned third-party checkers when available, plus a short fuzz
# smoke over the two checked-in corpora.
#
# 1. dpvet, standalone and as a go vet -vettool: noiserand (no seeded
#    math/rand in privacy-critical packages), budgetflow (mechanisms
#    charge the accountant on every success path), hotpath (annotated
#    functions stay allocation-free), lockheld (no blocking ops under
#    serving-tier mutexes, consistent lock order), floatcmp (no float
#    equality outside tests). Zero unexplained diagnostics: every
#    finding is fixed or carries a justified //dpvet:allow.
# 2. staticcheck + govulncheck, pinned versions, when the binaries are
#    on PATH. Offline dev boxes skip them with a notice; CI sets
#    STATIC_STRICT=1 to turn a missing binary into a failure.
# 3. Fuzz smoke: FuzzUnseal (sealed-artifact decoder), FuzzRebuildLabels
#    (the hub-label source decoder on its own, over arbitrary
#    hierarchies) and FuzzParsePairs (the query-string, point-body and
#    batch parsers checked against encoding/json, url.ParseQuery and
#    strconv references) run their checked-in testdata corpora plus a
#    short -fuzztime budget.
set -euo pipefail
cd "$(dirname "$0")/.."

STATICCHECK_VERSION=2023.1.7
FUZZTIME=${FUZZTIME:-10s}

echo "== dpvet: build =="
go build -o /tmp/dpvet ./cmd/dpvet

echo "== dpvet: standalone =="
/tmp/dpvet ./...

echo "== dpvet: go vet -vettool =="
go vet -vettool=/tmp/dpvet ./...

echo "== dpvet: self-test (analyzer + e2e suites) =="
go test -count=1 ./internal/analysis/ ./cmd/dpvet/

run_pinned() {
  local name=$1 version=$2; shift 2
  if command -v "$name" >/dev/null 2>&1; then
    echo "== $name =="
    "$@"
  elif [ "${STATIC_STRICT:-0}" = "1" ]; then
    echo "FAIL: $name $version required (STATIC_STRICT=1) but not installed" >&2
    exit 1
  else
    echo "== $name: SKIP (not installed; pin $version, set STATIC_STRICT=1 to require) =="
  fi
}

run_pinned staticcheck "$STATICCHECK_VERSION" staticcheck ./...
run_pinned govulncheck latest govulncheck ./...

echo "== fuzz smoke: FuzzUnseal ($FUZZTIME) =="
go test -run '^$' -fuzz '^FuzzUnseal$' -fuzztime "$FUZZTIME" ./dpgraph

echo "== fuzz smoke: FuzzRebuildLabels ($FUZZTIME) =="
go test -run '^$' -fuzz '^FuzzRebuildLabels$' -fuzztime "$FUZZTIME" ./internal/graph/index

echo "== fuzz smoke: FuzzParsePairs ($FUZZTIME) =="
go test -run '^$' -fuzz '^FuzzParsePairs$' -fuzztime "$FUZZTIME" ./internal/serve

echo "ALL STATIC CHECKS PASSED"
