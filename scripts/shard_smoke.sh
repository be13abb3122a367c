#!/bin/sh
# shard_smoke.sh — end-to-end gate for the sharded front tier.
#
# Phase 1 runs two seeded idemload campaigns against a single idemd and
# records their digests: the byte-identity reference. Phase 2 boots a
# 3-replica fleet behind idemfront and replays the first campaign; the
# fleet must reproduce the baseline digest exactly (-expect-digest),
# clear the baseline's cache hit ratio fleet-wide (an -assert on the
# summed replica counters — routing by content key means the fleet
# compiles each key exactly once, same as one process), and show hits on
# every replica (an each: -assert: the ring actually partitioned the
# working set). Phase 3 replays the second campaign and SIGKILLs one
# replica mid-run: the front must absorb the crash by failing the dead
# replica's keys over to their deterministic next owner — zero failed
# requests, zero digest drift. Finally the front and the surviving
# replicas must drain cleanly on SIGTERM.
set -eu
name=shard-smoke
. "$(dirname "$0")/lib.sh"
build idemd idemfront idemload

echo "shard-smoke: phase 1 — single-replica baselines"
start_idemd
"$tmp/idemload" -addr "$addr" -concurrency 16 -requests 160 -seed 42 -repeat 2 \
    -quiet -json "$tmp/base42.json"
"$tmp/idemload" -addr "$addr" -concurrency 16 -requests 240 -seed 7 \
    -quiet -json "$tmp/base7.json"
drain "$pid"

# The first "hit_ratio" is the cache section's (top-level keys
# serialize alphabetically: cache before disk/replicas).
digest42=$(digest_of "$tmp/base42.json")
digest7=$(digest_of "$tmp/base7.json")
ratio42=$(sed -n 's/.*"hit_ratio": \([0-9.eE+-]*\),*/\1/p' "$tmp/base42.json" | head -1)
if [ -z "$digest42" ] || [ -z "$digest7" ] || [ -z "$ratio42" ]; then
    die "baseline summaries incomplete"
fi
echo "shard-smoke: baseline digests $digest42 / $digest7, cache hit ratio $ratio42"

echo "shard-smoke: phase 2 — 3-replica fleet: digest identity + partitioned caches"
reps=""
n=1
while [ "$n" -le 3 ]; do
    spawn "$tmp/idemd" -addr 127.0.0.1:0 -addr-file "$tmp/raddr$n" -quiet
    eval "R$n=\$pid"
    wait_addr "$tmp/raddr$n" || die "replica $n did not start"
    reps="$reps$(cat "$tmp/raddr$n"),"
    n=$((n + 1))
done
reps="${reps%,}"
spawn "$tmp/idemfront" -addr 127.0.0.1:0 -addr-file "$tmp/faddr" -backends "$reps" -quiet
FRONT=$pid
wait_addr "$tmp/faddr" || die "idemfront did not start"
front_addr="$(cat "$tmp/faddr")"

"$tmp/idemload" -addr "$front_addr" -scrape "$reps" \
    -concurrency 16 -requests 160 -seed 42 -repeat 2 -expect-digest "$digest42" \
    -assert "$HIT_RATIO >= $ratio42" -assert 'each:idemd_buildcache_hits_total >= 1' \
    -json "$tmp/fleet42.json"

echo "shard-smoke: phase 3 — SIGKILL a replica mid-campaign, zero digest drift"
( sleep 2; kill -9 "$R3" 2>/dev/null || true ) &
KILLER=$!
"$tmp/idemload" -addr "$front_addr" \
    -scrape "$(cat "$tmp/raddr1"),$(cat "$tmp/raddr2")" \
    -concurrency 16 -requests 240 -seed 7 \
    -expect-digest "$digest7" -json "$tmp/fleet7.json"
wait "$KILLER" 2>/dev/null || true
wait "$R3" 2>/dev/null || true
forget "$R3"

drain "$FRONT" "$R1" "$R2"

echo "shard-smoke: OK"
