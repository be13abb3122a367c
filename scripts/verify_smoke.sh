#!/bin/sh
# verify_smoke.sh — end-to-end smoke test of the translation validator
# in the serving path (docs/verify.md).
#
# Boot idemd with -verify-mode full, sweep a compile of every built-in
# workload (idemload -sweep-compiles asserts each response reports
# verified=true), then fire a seeded mixed burst so the option variants
# in the load palette get validated too. Two -assert gates then check,
# from the daemon's own /metrics, that the validator actually ran (at
# least 29 idemd_verify_checked_total) and that not one check found a
# violation — the §2.1 criterion holds for everything the service
# compiled.
set -eu
name=verify-smoke
. "$(dirname "$0")/lib.sh"
build idemd idemload

start_idemd -verify-mode full

echo "verify-smoke: full verification over every workload + seeded burst"
"$tmp/idemload" -addr "$addr" \
    -sweep-compiles -concurrency 16 -requests 150 -seed 11 \
    -assert 'idemd_verify_checked_total >= 29' -assert 'idemd_verify_failed_total == 0'

drain "$pid"

echo "verify-smoke: OK"
