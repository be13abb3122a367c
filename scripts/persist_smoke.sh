#!/bin/sh
# persist_smoke.sh — end-to-end smoke test of the persistent artifact
# store (docs/persistence.md).
#
# Phase 1 boots idemd with -cache-dir, drives a seeded idemload pass
# (populating the store via write-behind), and drains with SIGTERM
# (which flushes in-flight artifact writes). Phase 2 restarts idemd over
# the same directory and replays the identical seeded pass: idemload
# asserts the daemon compiled nothing and served every build from disk,
# and the response digests of the two runs must be byte-identical.
# Phase 3 corrupts one artifact (truncation) and restarts: the damaged
# file must be counted in idemd_buildcache_disk_corrupt_total,
# transparently recompiled, and the digest must still match.
set -eu
name=persist-smoke
. "$(dirname "$0")/lib.sh"
build idemd idemload

store="$tmp/artifacts"

load() { # args: json output file, extra idemload flags
    out="$1"; shift
    "$tmp/idemload" -addr "$addr" \
        -concurrency 16 -requests 150 -seed 42 -quiet -json "$out" "$@"
}

echo "persist-smoke: phase 1 — populate the artifact store"
start_idemd -cache-dir "$store"
load "$tmp/pass1.json"
drain "$pid"

arts="$(find "$store" -name '*.art' | wc -l)"
[ "$arts" -gt 0 ] || die "no artifacts persisted"
echo "persist-smoke: $arts artifacts persisted"

echo "persist-smoke: phase 2 — warm restart: zero compiles, all from disk"
start_idemd -cache-dir "$store"
load "$tmp/pass2.json" \
    -assert 'idemd_buildcache_disk_hits_total / idemd_buildcache_disk_hits_total+idemd_buildcache_disk_misses_total >= 1' \
    -assert 'idemd_buildcache_compiles_total <= 0'
drain "$pid"

d1="$(digest_of "$tmp/pass1.json")"
d2="$(digest_of "$tmp/pass2.json")"
[ -n "$d1" ] || die "pass 1 produced no digest"
[ "$d1" = "$d2" ] || die "digest mismatch across restart: $d1 != $d2"

echo "persist-smoke: phase 3 — corrupt artifact self-heals"
victim="$(find "$store" -name '*.art' | head -n 1)"
size="$(wc -c < "$victim")"
dd if="$victim" of="$victim.tmp" bs=1 count="$((size / 2))" 2>/dev/null
mv "$victim.tmp" "$victim"
start_idemd -cache-dir "$store"
# The boot scan prunes the damaged file (counting it corrupt), so the
# replayed pass recompiles exactly that key and still matches the
# original digest. The compile bound limits the damage to the one
# artifact.
load "$tmp/pass3.json" \
    -assert 'idemd_buildcache_compiles_total <= 2' \
    -assert 'idemd_buildcache_disk_corrupt_total >= 1'
drain "$pid"
d3="$(digest_of "$tmp/pass3.json")"
[ "$d1" = "$d3" ] || die "digest mismatch after corruption recovery: $d1 != $d3"

echo "persist-smoke: OK"
