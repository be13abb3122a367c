# lib.sh — plumbing shared by the process-level smokes. Source it from
# the repository root after `set -eu` and after setting $name, the log
# prefix:
#
#   name=serve-smoke
#   . "$(dirname "$0")/lib.sh"
#   build idemd idemload
#
# It creates $tmp, and on exit kills every process still listed in
# $PIDS and removes $tmp.

GO="${GO:-go}"
tmp="$(mktemp -d)"
PIDS=""
cleanup() {
    for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# The fleet-wide compile cache hit ratio, as an -assert expression.
HIT_RATIO='idemd_buildcache_hits_total / idemd_buildcache_hits_total+idemd_buildcache_misses_total'

die() {
    echo "$name: $*" >&2
    exit 1
}

# build compiles the named ./cmd binaries into $tmp.
build() {
    for b in "$@"; do "$GO" build -o "$tmp/$b" "./cmd/$b"; done
}

# spawn starts a command in the background; $pid is its pid, and it is
# listed in $PIDS until drained.
spawn() {
    "$@" &
    pid=$!
    PIDS="$PIDS $pid"
}

# wait_addr polls for an -addr-file (written once the listener is up)
# for up to 10s, and fails if it never appears.
wait_addr() { # $1 = addr file
    i=0
    while [ ! -f "$1" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && return 1
        sleep 0.1
    done
}

# start_idemd boots idemd on a free port with extra flags and waits for
# it to listen; $pid is its pid and $addr its address.
start_idemd() { # args: extra idemd flags
    rm -f "$tmp/addr"
    spawn "$tmp/idemd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -quiet "$@"
    wait_addr "$tmp/addr" || die "idemd did not start"
    addr="$(cat "$tmp/addr")"
}

# forget drops a pid from $PIDS once it has exited.
forget() { # $1 = pid
    rest=""
    for q in $PIDS; do [ "$q" = "$1" ] || rest="$rest $q"; done
    PIDS="$rest"
}

# drain SIGTERMs each pid in turn and waits for it; a nonzero exit
# fails the script.
drain() { # args: pids
    for p in "$@"; do
        kill -TERM "$p"
        wait "$p" || die "pid $p exited nonzero on drain"
        forget "$p"
    done
}

# digest_of prints the first "digest" of an idemload -json summary.
digest_of() { # $1 = summary file
    sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' "$1" | head -n 1
}
