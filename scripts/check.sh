#!/usr/bin/env bash
# One-shot pre-commit gate: build, tests, lints, the determinism/numerics
# analyzer, and a perf-harness smoke run. Everything runs from the repo
# root regardless of invocation cwd, and a per-stage timing table prints
# at the end. The perf smoke writes its one report under
# target/bench-smoke/, so a full run leaves the working tree clean.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=target/bench-smoke
rm -rf "${BENCH_SMOKE}"

STAGE_NAMES=()
STAGE_SECS=()

run_stage() {
    local name="$1"
    shift
    echo "==> ${name}"
    local t0 t1
    t0=$(date +%s)
    "$@"
    t1=$(date +%s)
    STAGE_NAMES+=("${name}")
    STAGE_SECS+=($((t1 - t0)))
}

run_stage "cargo build --release" \
    cargo build --release

run_stage "cargo test -q --workspace" \
    cargo test -q --workspace

# Every target: libraries, binaries, tests, examples and #[cfg(test)] code.
run_stage "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings

# Blocking static-analysis gate: any finding (HashMap iteration, lib-crate
# unwrap, float ==, ambient RNG/clock, narrowing cast in kernels, missing
# crate-root hygiene attrs, hot-path allocation, unattested float
# reductions, blocking calls in worker closures, unaudited unsafe, stale
# allows, unregistered telemetry keys) fails the script. Suppressions need
# a `// analyzer:allow(<rule>): <reason>` comment at the site.
run_stage "faction-analyzer (determinism & numerics lint)" \
    cargo run -q -p faction-analyzer --release

# Analyzer v2 gate: the golden-fixture suite pins every rule's findings to
# `//~ rule` markers (positives and negatives) and re-runs the clean
# workspace self-scan as a test, so a rule that drifts — misses its
# fixture line or flags a new one — fails here even if the live scan
# above happens to stay green (DESIGN.md §12).
run_stage "analyzer-v2 (golden fixtures + self-scan)" \
    cargo test -q -p faction-analyzer --release --test golden

# Perf gate: one perf_report --quick run times every stage, evaluates the
# gate table (kernel and scoring speedups, telemetry overhead, phase
# coverage, refit and eviction growth, analyzer findings, wire size, grid
# scaling) into target/bench-smoke/perf_report.json, and exits 1 if any
# gate fails. Its determinism asserts (every worker count and the
# instrumented grid byte-identical to the 1-worker run) fail it too.
run_stage "perf_report --quick (perf gates)" \
    cargo run -q -p faction-bench --release --bin perf_report -- --quick --out-dir "${BENCH_SMOKE}"

# Incremental-GDA correctness gate: on a stationary stream with a frozen
# model, the rank-1 update/downdate path must stay within 1e-8 of a full
# batch refit — unbounded and under sliding-window eviction — and snap
# back to <=1e-10 immediately after a re-anchor (DESIGN.md §11).
run_stage "incremental-GDA stationary equivalence (<=1e-8 vs batch refit)" \
    cargo test -q -p faction-density --release --test incremental_equivalence

# Fault-injection gate: every strategy must survive a poisoned stream
# (NaN/Inf features, vanishing groups, constant-feature and single-class
# tasks) with the full budget spent, finite metrics, byte-identical results
# across worker counts, and degradation visible in telemetry — while clean
# streams report zero degradation (DESIGN.md §10).
run_stage "fault-injection (poisoned streams, graceful degradation)" \
    cargo test -q -p faction-core --release --test fault_injection

# Engine gate: the parallel execution engine must build and its determinism
# suite must prove jobs=1 and jobs=8 produce byte-identical canonical
# results (plus sequential-path equivalence, resume, and journal replay).
run_stage "faction-engine determinism (jobs=1 == jobs=8)" \
    cargo test -q -p faction-engine --release --test determinism

# Wire persistence gate: binary checkpoints/journals must round-trip
# byte-identically to their JSON renders (proptests over Checkpoint,
# RunCheckpoint, and JobEvent payloads), and the corruption matrix must
# hold — any single bit flip rejected by CRC, truncation at every byte
# salvaging exactly the valid record prefix, torn tails reported, future
# container versions refused (DESIGN.md §15).
run_stage "wire-roundtrip (binary == JSON render, corruption matrix)" \
    cargo test -q -p faction-engine --release --test wire_roundtrip

# Schedule-chaos sanitizer: the same grids re-run under ChaosSchedule
# seeds, which adversarially perturb worker wake-ups and force requeues,
# and every perturbed schedule must still produce byte-identical canonical
# results vs the jobs=1 baseline (DESIGN.md §12). This is the dynamic
# counterpart of the static worker-closure lints above.
run_stage "chaos-determinism (adversarial schedules, byte-identical)" \
    cargo test -q -p faction-engine --release --test chaos_determinism

# Kernel-backend gate: the dispatch facade's equivalence contract. The
# linalg property suite drives Scalar/Simd GEMM and the transposed products
# over random and degenerate shapes, bit-identical to their references (the
# i-k-j loop for GEMM and tn, the per-element dot fold for nt and matvec,
# signed zeros included); the engine suite
# proves an 8-strategy lineup renders canonically identical RunRecords on
# both backends (DESIGN.md §14).
run_stage "kernel-equivalence (scalar == simd, bitwise)" \
    cargo test -q -p faction-linalg --release --test kernel_equivalence
run_stage "kernel-determinism (8-strategy lineup, scalar vs simd)" \
    cargo test -q -p faction-engine --release --test kernel_determinism

# Serve gate: the multi-tenant session server's determinism contract. A
# 64-session mixed workload (five datasets, three strategies, four
# tenants, shed + busy + snapshot/restore traffic) must render the
# byte-identical decision trace at jobs=1, jobs=8, and under three
# ChaosSchedule seeds — with the chaos runs proving via the forced-requeue
# counter that co-tenant interleaving really was perturbed (DESIGN.md §13).
run_stage "serve-determinism (jobs=1 == jobs=8 == chaos)" \
    cargo test -q -p faction-serve --release --test determinism

# Telemetry gate #1: the inertness proof. Canonical grid results must be
# byte-identical with recording on vs. off, at 1 and 8 workers, through
# checkpoint/resume; canonicalized snapshots must be reproducible.
run_stage "telemetry-inertness (recording on == off)" \
    cargo test -q -p faction-telemetry --release --test inertness

# Telemetry gate #2: no hot path bypasses the observability layer. Raw
# Instant/SystemTime reads or shard-merging .snapshot() calls in library
# crates fail this stage (the full-analyzer stage above also covers it;
# this names the guarantee on its own line).
run_stage "faction-analyzer --rule telemetry-on-hot-path" \
    cargo run -q -p faction-analyzer --release -- --rule telemetry-on-hot-path

echo
echo "==> all checks passed"
echo "    stage timings:"
for i in "${!STAGE_NAMES[@]}"; do
    printf '    %4ss  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
done
