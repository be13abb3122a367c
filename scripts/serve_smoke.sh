#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the idemd service.
#
# Phase 1 boots idemd with an unbounded compile cache and fires a seeded
# idemload burst twice with the same seed: idemload itself asserts that
# both passes produce byte-identical response digests and that the
# compile cache's hit ratio (scraped from /metrics) cleared the bar.
# Phase 2 reboots idemd with a deliberately tiny -cache-bytes bound and
# asserts that LRU evictions actually happen. Both daemons are shut down
# with SIGTERM and must exit 0 (graceful drain).
set -eu
name=serve-smoke
. "$(dirname "$0")/lib.sh"
build idemd idemload

echo "serve-smoke: phase 1 — determinism + cache hit ratio (unbounded cache)"
start_idemd
"$tmp/idemload" -addr "$addr" \
    -concurrency 16 -requests 200 -seed 42 -repeat 2 -assert "$HIT_RATIO >= 0.5"
drain "$pid"

echo "serve-smoke: phase 2 — LRU evictions under a small byte bound"
start_idemd -cache-bytes 262144
"$tmp/idemload" -addr "$addr" \
    -concurrency 16 -requests 120 -seed 7 -assert 'idemd_buildcache_evictions_total >= 1'
drain "$pid"

echo "serve-smoke: OK"
