# Standard entry points. `make ci` is the full gate: build, format/vet
# checks, and the test suite under the race detector (the campaign
# engine and the experiment engine are the concurrent components — see
# docs/faultengine.md and docs/experiments.md).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt-check vet check lint test fuzz race race-fault bench bench-ledger layout loc serve-smoke chaos-smoke persist-smoke shard-smoke jobs-smoke verify-smoke ci

all: build

build:
	$(GO) build ./...

# fmt-check fails (listing the files) if anything is not gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The benchmark is a module of its own (bench/go.mod), which ./... does
# not reach, so vet and test name it: an internal API change that breaks
# the benchmark then fails here.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# lint runs go vet plus cmd/idemlint, the repo's own order-sensitivity
# checker: analysis passes that range over maps while appending to
# shared output (or building strings) produce run-to-run diffs that
# break the deterministic-digest contract. Findings are suppressed by a
# later sort or an explicit //idemlint:ordered annotation.
lint: vet
	$(GO) run ./cmd/idemlint

check: fmt-check lint

test: check
	$(GO) test ./...
	$(GO) -C bench test ./...
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) persist-smoke
	$(MAKE) shard-smoke
	$(MAKE) jobs-smoke
	$(MAKE) verify-smoke

# serve-smoke is the end-to-end service gate: boot idemd on a free port,
# fire a seeded idemload burst twice (same seed must yield byte-identical
# response digests, with a warm compile cache), then again under a tiny
# -cache-bytes bound (evictions must happen), draining with SIGTERM both
# times. See scripts/serve_smoke.sh and docs/service.md.
serve-smoke: build
	./scripts/serve_smoke.sh

# chaos-smoke is the end-to-end resilience gate: the same seeded load,
# but routed through idemload's seeded fault proxy (latency, 500s,
# connection resets, truncated bodies) with retries enabled. Idempotent
# re-execution must absorb every injected fault: zero permanently failed
# requests, and both passes must produce the same digest. See
# scripts/chaos_smoke.sh and docs/resilience.md.
chaos-smoke: build
	./scripts/chaos_smoke.sh

# persist-smoke is the end-to-end persistence gate: populate the
# -cache-dir artifact store under seeded load, SIGTERM, restart over the
# same store and replay — the daemon must compile nothing, serve every
# build from disk, and produce a byte-identical digest; then corrupt an
# artifact and prove the store self-heals. See scripts/persist_smoke.sh
# and docs/persistence.md.
persist-smoke: build
	./scripts/persist_smoke.sh

# shard-smoke is the end-to-end sharding gate: seeded baselines against
# one idemd, then the same campaigns through idemfront over a 3-replica
# fleet. The fleet must reproduce the baseline digests byte-for-byte,
# match the baseline's cache hit ratio on the summed replica counters,
# show hits on every replica (the ring partitioned the working set), and
# absorb a SIGKILLed replica mid-campaign with zero failures. See
# scripts/shard_smoke.sh and docs/sharding.md.
shard-smoke: build
	./scripts/shard_smoke.sh

# verify-smoke is the end-to-end translation-validation gate: boot
# `idemd -verify-mode full`, compile every built-in workload through
# /v1/compile (each response must report verified=true), drive the
# seeded mixed load, and assert via scraped metrics that checks ran and
# zero violations were found. See scripts/verify_smoke.sh and
# docs/verify.md.
verify-smoke: build
	./scripts/verify_smoke.sh

# jobs-smoke is the end-to-end async-job gate: run a job to completion
# and assert its reconstructed stream is byte-identical to /v1/batch,
# then SIGKILL the daemon mid-job and prove the journal resumes it on
# restart — same digest, zero recompiles, at least one unit served from
# the journal instead of re-executed. See scripts/jobs_smoke.sh and
# docs/jobs.md.
jobs-smoke: build
	./scripts/jobs_smoke.sh

# fuzz runs every native Fuzz* target (outside the separate bench
# module) for 10s each; `go test -fuzz` takes one target per run.
# It is not part of `make test`: plain `go test` already runs the seed
# corpora. A crasher lands in the package's testdata/fuzz directory.
fuzz:
	@for f in $$(grep -rl --include='*_test.go' '^func Fuzz' . | grep -v '^./bench/'); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$f"); do \
			echo "fuzz: $$t ($$(dirname "$$f"))"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s "$$(dirname "$$f")" || exit 1; \
		done; \
	done

# The race detector multiplies runtime; race-fault covers the concurrent
# components quickly (campaign engine, simulator, compile cache,
# experiment engine, idemd service core and its metric series, the
# front tier and job manager, and the cmd-level signal, retry and chaos
# paths), race runs the whole tree.
race-fault:
	$(GO) test -race ./internal/fault/... ./internal/machine/... \
		./internal/buildcache/... ./internal/experiments/... \
		./internal/server/... ./internal/metrics/... \
		./internal/shard/... ./internal/jobs/... \
		./cmd/idemd/... ./cmd/idemfront/... ./cmd/idemload/...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-ledger runs the repository benchmark (bench/run.sh: the figures,
# compile, serve and churn workloads, see bench/README.md) three times
# and writes every run, with its host and shape, to BENCH_ledger.json.
# The file is committed: a change that moves performance refreshes it and
# compares the two files with `bash bench/run.sh -compare OLD NEW`.
bench-ledger:
	bash bench/run.sh -runs 3 -json BENCH_ledger.json

# layout prints where the linker put the hot loops in the binaries that
# `bash bench/run.sh` last built and measured: the address, and the
# address mod 64, of (*Machine).exec, verify's block walks
# (*verifier).analyzeRegion and (*verifier).provBlock and the region
# pass's (*verifier).step, and the limit study's (*Tracker).Instr, which
# Figs. 4 and 9 call on every simulated instruction, in
# .bench_build/bench and .bench_build/idemd. Their 64-byte alignment
# alone has moved simulator- and verify-bound bench numbers by several
# percent, so compare this output between two checkouts before crediting
# or blaming a change for such a move.
LAYOUT_SYMS = \((\*Machine\)\.exec|\*verifier\)\.(step|analyzeRegion|provBlock)|\*Tracker\)\.Instr)$$

layout:
	@for b in .bench_build/bench .bench_build/idemd; do \
		if [ ! -f "$$b" ]; then \
			echo "layout: $$b is missing; run bash bench/run.sh first" >&2; exit 1; \
		fi; \
		echo "$$b:"; \
		$(GO) tool nm -sort address "$$b" | grep -E ' T .*$(LAYOUT_SYMS)' | \
		while read addr kind sym; do \
			printf '  0x%s  mod 64 = %2d  %s\n' "$$addr" $$((0x$$addr % 64)) "$$sym"; \
		done; \
	done

# loc prints the non-test Go lines in tracked files outside bench/, and
# how many of them are in the serving packages (internal/server,
# internal/shard, internal/jobs, cmd/idemload, cmd/idemd and
# cmd/idemfront): the two counts ROADMAP aim 2 tracks.
SERVING_PKGS = ^(internal/(server|shard|jobs)|cmd/(idemload|idemd|idemfront))/

loc:
	@files=$$(git ls-files '*.go' | grep -v -e '^bench/' -e '_test\.go$$'); \
	total=$$(cat $$files | wc -l); \
	serving=$$(cat $$(printf '%s\n' $$files | grep -E '$(SERVING_PKGS)') | wc -l); \
	echo "non-test Go lines outside bench/: $$total"; \
	echo "in the serving packages: $$serving ($$((100 * serving / total))%)"

ci: build check race
