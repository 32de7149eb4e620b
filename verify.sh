#!/usr/bin/env sh
# Repo verification: build, vet, lint, race-test. The default pass includes
# the FuzzDecode seed corpus (run as regular tests by go test), the
# concurrent sharded-lock PFS stress test under the race detector
# (TestConcurrentShardedStress), and the nclint invariant suite
# (internal/analysis, DESIGN.md §10/§14) over every package; any diagnostic
# fails the gate. The benchmark module's own tests (perfbench/) run after
# the root suite. nclint runs in interprocedural mode (module call graph +
# summaries) and its wall time is recorded and budgeted at 30s. Toggles:
#   LINT=0   skip the nclint pass (escape hatch while iterating).
#   CB_PARTITION=0  skip the cb_partition=balanced re-run of the collective
#            suites (on by default; see DESIGN.md §12).
#   PIPELINE=0  skip the PNETCDF_CB_PIPELINE=0 re-run of the collective
#            suites and the serial-vs-pipelined byte-identity check
#            (on by default; see DESIGN.md §13).
#   BENCH=1  smoke-run every benchmark once (catches bit-rotted bench code),
#            then run the FLASH I/O benchmark with statistics and emit
#            results/BENCH_flashio.json, and record the pipelined-vs-serial
#            checkpoint wall clock in results/BENCH_pipeline.txt (slower;
#            not part of the gate).
#   FAULT=1  re-run the fault-injection suites under the race detector and
#            drive a FLASH checkpoint at a 1% transient fault rate with a
#            fixed seed; the run must complete and account its retries.
#   FT=1     rank-failure tolerance (DESIGN.md §8): run the rank-kill and
#            revoke/shrink/failover suites under the race detector with an
#            explicit timeout bound (a hang is the failure mode under
#            test), then kill an aggregator mid-round in an 8-rank FLASH
#            checkpoint; survivors must fail over, the file must be
#            ncvalidate-clean, and ft_failover_rounds must be nonzero.
#   TRACE=1  smoke the span pipeline: a small collective write with
#            -span-out, then nctrace timeline/critical/imbalance over the
#            emitted Chrome trace (which must parse and name a critical
#            path).
set -eu

cd "$(dirname "$0")"

go build ./...
go vet ./...
if [ "${LINT:-1}" = "1" ]; then
    # Interprocedural mode is the default; keep it honest about cost: the
    # whole-module pass (load + call graph + fixed-point summaries + all
    # checkers) must finish inside a 30-second budget.
    lint_t0=$(date +%s)
    go run ./cmd/nclint ./...
    lint_t1=$(date +%s)
    lint_secs=$((lint_t1 - lint_t0))
    echo "nclint: interp pass took ${lint_secs}s"
    if [ "$lint_secs" -ge 30 ]; then
        echo "nclint: interp pass exceeded the 30s budget (${lint_secs}s)" >&2
        exit 1
    fi
fi
go test -race ./...
# The benchmark is a module of its own (perfbench/go.mod), so the root
# go test cannot see its tests: self-time invariants and the agreement of
# BENCHMARK.json with the program's workload and metric tables.
(cd perfbench && go test .)

if [ "${CB_PARTITION:-1}" = "1" ]; then
    # Re-run the collective-path suites with balanced file domains as the
    # ambient default (DESIGN.md §12): every collective test must pass, and
    # produce the same bytes, under cb_partition=balanced.
    PNETCDF_CB_PARTITION=balanced go test \
        ./internal/mpiio/ ./internal/core/ ./internal/integration/ ./internal/bench/
fi

if [ "${PIPELINE:-1}" = "1" ]; then
    # Re-run the collective-path suites with the depth-2 round pipeline
    # disabled (DESIGN.md §13): the serial loop must pass every test, and a
    # multi-round FLASH checkpoint must be byte-identical under both
    # settings (pipelining is a scheduling change only).
    PNETCDF_CB_PIPELINE=0 go test \
        ./internal/mpiio/ ./internal/core/ ./internal/integration/ ./internal/bench/
    pipedir=$(mktemp -d)
    go run ./cmd/flashio-bench -block 8 -procs 8 -blocks-per-proc 20 \
        -files checkpoint -cb-buffer-size 65536 -cb-nodes 2 \
        -cb-pipeline enable -out "$pipedir/piped.nc" > /dev/null
    go run ./cmd/flashio-bench -block 8 -procs 8 -blocks-per-proc 20 \
        -files checkpoint -cb-buffer-size 65536 -cb-nodes 2 \
        -cb-pipeline disable -out "$pipedir/serial.nc" > /dev/null
    go run ./cmd/ncdiff "$pipedir/piped.nc" "$pipedir/serial.nc"
    rm -rf "$pipedir"
fi

if [ "${BENCH:-0}" = "1" ]; then
    mkdir -p results
    go test -run '^$' -bench . -benchtime 1x ./...
    go run ./cmd/flashio-bench -block 8 -files checkpoint -procs 4,8 \
        -stats -json results/BENCH_flashio.json
    go test -run '^$' -bench 'BenchmarkFlashCheckpoint8' -benchtime 5x . \
        | tee results/BENCH_pipeline.txt
fi

if [ "${FAULT:-0}" = "1" ]; then
    # Explicit -timeout: these suites exercise crash/retry paths whose
    # failure mode is a hang, so bound them well below the 10m default.
    go test -race -timeout 300s \
        -run 'Fault|Crash|Retr|Agree|Short|Transient|Journal|Recover' \
        ./internal/fault/ ./internal/cdf/ ./internal/netcdf/ \
        ./internal/mpiio/ ./internal/core/ ./internal/integration/
    go run ./cmd/flashio-bench -block 8 -procs 8 -blocks-per-proc 20 \
        -files checkpoint -fault-rate 0.01 -fault-seed 2003 -stats
fi

if [ "${FT:-0}" = "1" ]; then
    # A dead rank must never hang a survivor: every FT suite runs under
    # the race detector with a hard timeout (a hang IS the regression).
    go test -race -timeout 300s -run 'FT|RankFailure|WaitAllEmpty|KillCheck' \
        ./internal/mpi/ ./internal/fault/ ./internal/mpiio/ \
        ./internal/integration/
    # End-to-end: 8-rank FLASH checkpoint, aggregator rank 4 killed in the
    # exchange phase (cb_nodes=2 places aggregators at ranks 0 and 4, so
    # this exercises file-domain reassignment, not just a lost writer).
    # Survivors detect, shrink, fail over; the file must validate and the
    # counters must show the failover actually ran.
    ftdir=$(mktemp -d)
    go run ./cmd/flashio-bench -block 8 -procs 8 -blocks-per-proc 20 \
        -files checkpoint -cb-buffer-size 65536 -cb-nodes 2 \
        -ft-timeout 100ms -kill-rank 4 -kill-point mid_exchange \
        -stats -json "$ftdir/ft.json" -out "$ftdir/ft.nc"
    go run ./cmd/ncvalidate "$ftdir/ft.nc"
    grep -q '"ft_failover_rounds": *[1-9]' "$ftdir/ft.json" \
        || { echo "FT: ft_failover_rounds is zero after a rank kill" >&2; exit 1; }
    grep -q '"ft_comm_shrinks": *[1-9]' "$ftdir/ft.json" \
        || { echo "FT: no communicator shrink recorded" >&2; exit 1; }
    rm -rf "$ftdir"
fi

if [ "${TRACE:-0}" = "1" ]; then
    mkdir -p results
    go run ./cmd/flashio-bench -block 8 -procs 8 -blocks-per-proc 4 \
        -files checkpoint -span-out results/TRACE_spans.json \
        -trace results/TRACE_events.jsonl -stats
    go run ./cmd/nctrace timeline results/TRACE_spans.json > /dev/null
    go run ./cmd/nctrace critical results/TRACE_spans.json \
        | grep agg_write > /dev/null \
        || { echo "TRACE: critical path is empty" >&2; exit 1; }
    go run ./cmd/nctrace imbalance results/TRACE_spans.json > /dev/null
    go run ./cmd/nctrace results/TRACE_events.jsonl > /dev/null
fi

echo "verify: OK"
