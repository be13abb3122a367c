#!/bin/sh
# jobs_smoke.sh — end-to-end smoke test of the async job subsystem
# (docs/jobs.md), including the hard guarantee: a daemon killed with
# SIGKILL mid-job resumes the job on restart from its journal, without
# re-executing completed units and without recompiling anything.
#
# Phase 1 boots idemd with -cache-dir, runs a jobs campaign to
# completion (-verify-batch asserts the reconstructed stream is
# byte-identical to a direct /v1/batch POST), and drains with SIGTERM.
# That also warms the artifact store with every workload the batch uses.
#
# Phase 2 restarts over the same store, launches a streaming jobs
# campaign in the background, waits until the job's journal has absorbed
# at least one completed unit, and kills the daemon with -9 — no drain,
# no flush. The daemon restarts on the same address; recovery replays
# the journal before the listener opens, and the client (which has been
# riding out the outage by reconnecting its stream at the cursor)
# finishes the job. The client asserts the full contract: the digest
# equals phase 1's (-expect-digest: completed units were served from the
# journal byte-for-byte, not re-run), the restarted daemon compiled
# nothing (warm artifacts), and at least one unit result was reloaded
# from the journal (idemd_jobs_resumed_units_total >= 1).
set -eu
name=jobs-smoke
. "$(dirname "$0")/lib.sh"
build idemd idemload

store="$tmp/artifacts"

# jobs_idemd boots idemd on the given address over the store. It
# returns nonzero (instead of exiting) if the daemon never came up, so
# the phase 2 rebind loop can retry through TIME_WAIT.
jobs_idemd() { # $1 = listen address
    rm -f "$tmp/addr"
    spawn "$tmp/idemd" -addr "$1" -addr-file "$tmp/addr" -quiet -cache-dir "$store" -workers 2
    wait_addr "$tmp/addr" && return 0
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    forget "$pid"
    return 1
}

# The campaign: 32 deliberately slow simulation units (300k steps each)
# so the phase 2 kill lands mid-job with units both completed and
# pending. Identical flags in both phases => identical submitted bytes
# => comparable digests.
load_jobs() { # args: json output file, extra idemload flags
    out="$1"; shift
    "$tmp/idemload" -addr "$(cat "$tmp/addr")" -quiet -jobs \
        -job-units 32 -job-sim-steps 300000 -seed 42 -json "$out" "$@"
}

echo "jobs-smoke: phase 1 — full job run, byte-identical to /v1/batch"
jobs_idemd 127.0.0.1:0 || die "idemd did not start"
load_jobs "$tmp/pass1.json" -verify-batch
drain "$pid"
d1="$(digest_of "$tmp/pass1.json")"
[ -n "$d1" ] || die "phase 1 produced no digest"
echo "jobs-smoke: phase 1 digest $d1"

echo "jobs-smoke: phase 2 — SIGKILL mid-job, resume from the journal"
# Drop phase 1's finished journal so the one .job file below is phase
# 2's, and so the resumed-units assertion can only be satisfied by the
# interrupted job. The artifact store itself stays warm.
rm -rf "$store/jobs"
jobs_idemd 127.0.0.1:0 || die "idemd did not start"
addr="$(cat "$tmp/addr")"

load_jobs "$tmp/pass2.json" -stream -expect-digest "$d1" \
    -assert 'idemd_buildcache_compiles_total <= 0' \
    -assert 'idemd_jobs_resumed_units_total >= 1' &
client=$!
PIDS="$PIDS $client"

# Kill only after the journal holds at least one completed unit: wait
# for <store>/jobs/<id>.job to appear (header written at submit), then
# for it to grow past its initial size (first appended record).
jnl=""
i=0
while [ -z "$jnl" ]; do
    i=$((i + 1))
    [ "$i" -gt 300 ] && die "no journal appeared"
    jnl="$(find "$store/jobs" -name '*.job' 2>/dev/null | head -n 1 || true)"
    [ -n "$jnl" ] || sleep 0.1
done
base="$(wc -c < "$jnl")"
i=0
while :; do
    i=$((i + 1))
    [ "$i" -gt 300 ] && die "journal never grew"
    now="$(wc -c < "$jnl")"
    [ "$now" -gt "$base" ] && break
    sleep 0.1
done

echo "jobs-smoke: journal at $now bytes, killing idemd with SIGKILL"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
forget "$pid"

# Restart on the same address (the stream client is reconnecting against
# it). The port can linger in TIME_WAIT briefly, so retry the bind.
n=0
until jobs_idemd "$addr" 2>/dev/null; do
    n=$((n + 1))
    [ "$n" -gt 5 ] && die "could not rebind $addr"
    sleep 0.25
done

wait "$client" || die "resumed campaign failed (digest, compile, or resume assertion)"
forget "$client"
d2="$(digest_of "$tmp/pass2.json")"
echo "jobs-smoke: phase 2 digest $d2 (resume preserved byte identity, zero recompiles)"
drain "$pid"

echo "jobs-smoke: OK"
