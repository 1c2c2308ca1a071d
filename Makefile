# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build test race cover cover-check loc bench bench-compare bench-short microbench bench-smoke chaos-smoke fleet-smoke lstsq-smoke incr-smoke transfer-check experiments examples trace serve load fmt vet lint mrlint clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Non-test Go lines per package: the root package, then every package
# under internal/ and cmd/, with the total last. CI fails when the total
# exceeds ci/loc_budget.txt; lower the budget in the PR that earns it.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' . ./internal/... ./cmd/... | \
	while read -r pkg files; do printf '%6d %s\n' "$$(cat /dev/null $$files | wc -l)" "$$pkg"; done | \
	awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# The repository's benchmark (bench/README.md): five workloads, the
# end-to-end metrics and the per-layer ledger, written to $(OUT).
# `make bench-compare BASE=base.json HEAD=head.json` prints the verdict
# table and fails on a regressed row; `make bench-short` is the CI smoke
# (one 2 s run per workload, non-zero exit on any failed operation).
OUT ?= head.json
bench:
	$(GO) run ./bench -out $(OUT) > /dev/null

bench-compare:
	$(GO) run ./bench -compare $(BASE) $(HEAD)

bench-short:
	$(GO) run ./bench -short > /dev/null

# go test micro-benchmarks: one line per paper table/figure plus the
# kernel rows. The four kernels this repository's tasks run are
# `go test -bench Kernel ./internal/matrix ./internal/lu`.
microbench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Regenerate every evaluation artifact (Tables 1-3, Figures 6-8, §7.4,
# §7.2, §5 nb tuning, §8 engines/spark).
experiments:
	$(GO) run repro/cmd/mrbench -exp all

# Run every example end to end.
examples:
	$(GO) run repro/examples/quickstart
	$(GO) run repro/examples/linsolve
	$(GO) run repro/examples/inverseiteration
	$(GO) run repro/examples/tomography
	$(GO) run repro/examples/adaptive
	$(GO) run repro/examples/faulttolerance
	$(GO) run repro/examples/observability -o trace.json

# Capture a Chrome trace of one traced inversion (internal/obs): generate
# a matrix, invert it with -trace, and leave trace.json for
# chrome://tracing or ui.perfetto.dev.
trace:
	$(GO) run repro/cmd/matgen -n 256 -o /tmp/matinv-trace-input.bin
	$(GO) run repro/cmd/matinv -in /tmp/matinv-trace-input.bin -nodes 8 -nb 64 -trace trace.json -metrics
	@echo "trace written to trace.json — open it in chrome://tracing or ui.perfetto.dev"

# Start the inversion server on :8723 (POST matrices to /invert; see
# /statz and /metricz for the serving counters).
serve:
	$(GO) run repro/cmd/matserve -addr :8723 -metrics

# Self-contained load run: loadgen starts an in-process matserve and
# drives the default request mix, printing a JSONL latency summary.
load:
	$(GO) run repro/cmd/loadgen -mode closed -concurrency 8 -requests 64 -seed 1
	$(GO) run repro/cmd/loadgen -mode open -rate 50 -requests 64 -seed 1

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Mirror of the CI lint gate: gofmt, vet, the repository's own invariant
# checkers (cmd/mrlint, stdlib-only), and staticcheck. staticcheck is
# skipped gracefully when not installed locally; CI always runs it,
# pinned to the same version as the workflow
# (honnef.co/go/tools/cmd/staticcheck@2024.1.1).
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run repro/cmd/mrlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

# The invariant checkers alone (determinism, ctxflow, boundedalloc,
# obsnames, lockscope — see internal/analysis). -vet chains the
# relevant go vet passes behind the same exit code.
mrlint:
	$(GO) run repro/cmd/mrlint -vet ./...

# Mirror of the CI coverage gate: total ./internal/... statement coverage
# must not drop below ci/coverage_floor.txt.
cover-check:
	$(GO) test -coverprofile=cover.out ./internal/...
	@floor="$$(cat ci/coverage_floor.txt)"; \
	total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
	{ echo "coverage $$total% fell below floor $$floor%"; exit 1; }

# Seeded perf smoke, as run by CI: one closed-loop serving load run plus
# the seeded benchmark experiments, collected as JSONL in
# BENCH_report.json (uploaded as a workflow artifact — the repository's
# perf trajectory).
bench-smoke:
	$(GO) run repro/cmd/loadgen -mode closed -concurrency 4 -requests 32 -seed 1 -mix 24:5,40:3,64:2 -dup 0.25 > BENCH_report.json
	$(GO) run repro/cmd/loadgen -shards 4 -mode closed -concurrency 8 -requests 48 -seed 1 -mix 24:5,40:3,64:2 -dup 0.4 -tenant-mix gold:3,free:1 -tenants-quota 'gold=16:5,free=8:0' >> BENCH_report.json
	$(GO) run repro/cmd/loadgen -mode closed -concurrency 4 -requests 32 -seed 1 -mix 256x8:3,192x6:2,24:5 -dup 0.25 -verify >> BENCH_report.json
	$(GO) run repro/cmd/mrbench -exp all -seed 1 -json >> BENCH_report.json
	$(GO) run repro/cmd/mrbench -kill-nodes 2 -n 96 -nb 24 -seed 1 -json >> BENCH_report.json
	grep -q '"experiment":"multiround"' BENCH_report.json
	grep -q '"strategy":"replicated"' BENCH_report.json
	grep -q '"beats_single":true' BENCH_report.json
	grep -q '"experiment":"incr"' BENCH_report.json
	grep -q '"update_wins":true' BENCH_report.json

# Shuffle-bytes regression gate, as run by CI: seeded multiply per
# strategy on the gated shape, bit-identity against the sequential
# reference, and measured transfer within +5% of ci/transfer_baseline.txt
# (with the replicated strategy required to keep beating single-round).
transfer-check:
	$(GO) run repro/cmd/transfercheck

# Seeded fleet smoke, as run by CI: drive a saturating skewed mix at an
# in-process 4-shard federated fleet with two tenant classes and tight
# per-shard queues. The gate requires zero failed requests AND the
# overflow-spill path to have engaged (home shards saturate, the router
# reroutes to the least-loaded live shard instead of returning 429).
fleet-smoke:
	$(GO) run repro/cmd/loadgen -shards 4 -serve-concurrency 1 -serve-queue 2 \
		-concurrency 12 -requests 96 -seed 1 -mix 40:3,64:3,96:2 -dup 0.2 \
		-hot-keys 2 -hot-frac 0.3 -tenant-mix gold:1,free:1 \
		-tenants-quota 'gold=16:5,free=16:0' \
		-assert-error-rate 0 -assert-min-spills 1

# Seeded least-squares smoke, as run by CI: a blended square/tall mix
# against a single in-process server and a 4-shard fleet. Tall entries
# hit /lstsq through the TSQR pipeline; -verify checks every returned
# solution against the sequential QR reference (1e-8), and the gate
# requires zero failures of any kind.
lstsq-smoke:
	$(GO) run repro/cmd/loadgen -mode closed -concurrency 8 -requests 64 -seed 1 \
		-mix 24:4,40:2,256x8:3,192x6:1 -dup 0.3 -verify -assert-error-rate 0
	$(GO) run repro/cmd/loadgen -shards 4 -mode closed -concurrency 8 -requests 64 -seed 2 \
		-mix 24:4,40:2,256x8:3,192x6:1 -dup 0.3 -hot-keys 2 -hot-frac 0.25 \
		-verify -assert-error-rate 0

# Seeded incremental-inversion smoke, as run by CI: a hot-key mix where
# 30% of requests are rank-2 row mutations of hot bases, served by an
# in-process fleet with the SMW update path enabled. The gate requires
# zero errors, at least one incrementally served request, and the
# incremental p50 beating the full-pipeline p50.
incr-smoke:
	$(GO) run repro/cmd/loadgen -mode closed -concurrency 4 -requests 96 -seed 7 		-mix 64:3,96:1 -dup 0.2 -hot-keys 3 -hot-frac 0.35 		-delta-frac 0.3 -delta-rank 2 -incr 		-assert-error-rate 0 -assert-min-incremental 1 -assert-incr-faster

# Seeded chaos smoke, as run by CI: replay the §7.4 failure-recovery
# experiment under the race detector — kill 2 of 8 nodes mid-pipeline and
# require a bit-identical inverse with every failure mode exercised.
chaos-smoke:
	$(GO) run -race repro/cmd/chaosrun -n 192 -nb 48 -nodes 8 -kill 2 -seed 1 -assert

# Record the final outputs the repository ships with.
record:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem -run='^$$' ./... 2>&1 | tee bench_output.txt
