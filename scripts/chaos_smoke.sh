#!/bin/sh
# chaos_smoke.sh — short seeded chaos campaign against a real idemd.
#
# Boots idemd, then runs idemload with its seeded fault proxy
# interposed (injected latency, 500s, connection resets, truncated
# bodies) and retries enabled. Because every /v1/* response is an
# idempotent function of its request, re-execution must fully absorb
# the faults: idemload exits nonzero on any permanently failed request
# or any digest drift between its two passes, and this script
# additionally asserts that faults were actually injected (a campaign
# that injected nothing proves nothing). The daemon is then drained with
# SIGTERM and must exit 0.
set -eu
name=chaos-smoke
. "$(dirname "$0")/lib.sh"
build idemd idemload

start_idemd

echo "chaos-smoke: seeded fault campaign (retries absorb injected faults)"
"$tmp/idemload" -addr "$addr" \
    -concurrency 16 -requests 150 -seed 5 -repeat 2 \
    -chaos-seed 7 -chaos-rates "10,6,6,6" -retries 8 \
    -json "$tmp/chaos.json"

grep -q '"failures": 0' "$tmp/chaos.json" || {
    cat "$tmp/chaos.json" >&2
    die "summary reports permanent failures"
}
if grep -q '"resets": 0,' "$tmp/chaos.json" &&
    grep -q '"errors_500": 0,' "$tmp/chaos.json" &&
    grep -q '"truncates": 0' "$tmp/chaos.json"; then
    cat "$tmp/chaos.json" >&2
    die "proxy injected no faults; campaign was vacuous"
fi

drain "$pid"

echo "chaos-smoke: OK"
