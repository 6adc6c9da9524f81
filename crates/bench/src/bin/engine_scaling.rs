//! Engine scaling measurement: grid throughput at 1 vs N workers.
//!
//! Runs a reduced evaluation grid (tiny architecture, truncated streams —
//! the same shape as the engine's determinism tests) through
//! [`faction_engine::Engine::run_grid`] at several worker counts, checks
//! the canonical results are byte-identical across all of them, and writes
//! the wall-clock speedups to `BENCH_PR3.json` at the repo root.
//!
//! The PR-3 gate is "≥3× at 4+ cores". The harness measures whatever the
//! host offers and reports honestly: if the machine has fewer than four
//! cores the gate is recorded as not applicable rather than extrapolated —
//! oversubscribed workers on a small host measure scheduling overhead, not
//! scaling.
//!
//! Since PR 4 the harness also fills the scheduler section of
//! `BENCH_PR4.json` (read-modify-write, shared with `perf_report`): one
//! extra grid run at the highest worker count with a live telemetry
//! registry, reporting the pool's steal/park/queue counters. The *timed*
//! runs keep the no-op recorder so the speedup figures measure the
//! uninstrumented engine.
//!
//! Usage: `cargo run --release --bin engine_scaling [-- --quick] [--out-dir DIR]`
//! (`--quick` runs one repetition instead of taking the best of three).
//! Reports land in `DIR` (created if missing), by default the repo root.

use std::sync::Arc;
use std::time::Instant;

use faction_bench::pr4;
use faction_core::ExperimentConfig;
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_engine::{Engine, EngineConfig, ExperimentJob};
use faction_telemetry::{Handle, Registry};
use serde::Serialize;

/// One worker-count measurement.
#[derive(Debug, Serialize)]
struct ScalePoint {
    /// Pool worker threads.
    workers: usize,
    /// Best wall time over the repetitions, in seconds.
    best_seconds: f64,
    /// Speedup relative to the 1-worker run (>1 is faster).
    speedup_vs_1: f64,
    /// Canonical results byte-identical to the 1-worker run.
    identical_to_sequential: bool,
}

/// The full report written to `BENCH_PR3.json`.
#[derive(Debug, Serialize)]
struct ScalingReport {
    /// Report schema / PR tag.
    report: String,
    /// Whether this was a `--quick` smoke run.
    quick: bool,
    /// Logical cores the host exposes (`available_parallelism`).
    host_cores: usize,
    /// Jobs in the reduced grid.
    grid_jobs: usize,
    /// Per-worker-count measurements.
    points: Vec<ScalePoint>,
    /// The PR-3 acceptance gate: ≥3× speedup at 4+ workers, measurable
    /// only on a host with 4+ cores.
    gate: String,
}

/// The reduced grid: 2 datasets × 2 cheap strategies × 3 seeds, truncated
/// streams, tiny architecture — big enough to keep every worker busy,
/// small enough to run in seconds.
fn reduced_grid() -> Vec<ExperimentJob> {
    let cfg = ExperimentConfig {
        budget: 60,
        acquisition_batch: 15,
        warm_start: 60,
        epochs_per_iteration: 3,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..ExperimentConfig::quick()
    };
    let mut jobs = faction_engine::grid(
        &[Dataset::Rcmnist, Dataset::Nysf],
        &["entropy", "random", "qufur"],
        4,
        &cfg,
        Scale::Quick,
    );
    for job in &mut jobs {
        job.arch = faction_engine::ArchPreset::Tiny;
        job.truncate_tasks = Some(4);
        job.truncate_samples = Some(250);
    }
    jobs
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out_dir = pr4::report_dir("--out-dir");
    let reps = if quick { 1 } else { 3 };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = reduced_grid();

    let mut worker_counts = vec![1, 2, 4];
    if host_cores > 4 && !worker_counts.contains(&host_cores) {
        worker_counts.push(host_cores);
    }

    let mut baseline_json: Option<String> = None;
    let mut baseline_seconds = 0.0;
    let mut points: Vec<ScalePoint> = Vec::new();
    for &workers in &worker_counts {
        let engine = Engine::new(EngineConfig {
            workers,
            max_retries: 0,
            checkpoint_dir: None,
            recorder: Handle::noop(),
            chaos: None,
            ..EngineConfig::default()
        });
        let mut best_seconds = f64::INFINITY;
        let mut canonical = String::new();
        for _ in 0..reps {
            let start = Instant::now();
            let outcome = engine.run_grid(&jobs);
            let seconds = start.elapsed().as_secs_f64();
            assert!(outcome.failures.is_empty(), "reduced grid must not fail: {:?}", outcome.failures);
            best_seconds = best_seconds.min(seconds);
            canonical = outcome.canonical_json().expect("records serialize");
        }
        let identical = match &baseline_json {
            None => {
                baseline_json = Some(canonical);
                baseline_seconds = best_seconds;
                true
            }
            Some(base) => *base == canonical,
        };
        assert!(identical, "workers={workers} diverged from the sequential results");
        points.push(ScalePoint {
            workers,
            best_seconds,
            speedup_vs_1: baseline_seconds / best_seconds,
            identical_to_sequential: identical,
        });
        println!(
            "workers={workers:<3} best {best_seconds:>8.3}s  speedup {:>5.2}x  identical=yes",
            baseline_seconds / best_seconds
        );
    }

    let gate = if host_cores >= 4 {
        let at_4 = points.iter().find(|p| p.workers >= 4).map_or(0.0, |p| p.speedup_vs_1);
        if at_4 >= 3.0 {
            format!("pass: {at_4:.2}x at 4 workers on a {host_cores}-core host (gate: >=3x)")
        } else {
            format!("fail: {at_4:.2}x at 4 workers on a {host_cores}-core host (gate: >=3x)")
        }
    } else {
        format!(
            "not-applicable: host exposes {host_cores} core(s); the >=3x-at-4-cores gate needs \
             4+ cores. Determinism across worker counts verified; rerun on a multicore host \
             for the speedup figure."
        )
    };

    // --- BENCH_PR4 scheduler section: one instrumented run ---------------
    // Re-run the grid at the highest worker count with a live registry and
    // verify the instrumented run is still byte-identical to the baseline
    // (the inertness contract, exercised at bench scale).
    let top_workers = *worker_counts.last().expect("at least one worker count");
    let registry = Arc::new(Registry::new());
    let instrumented = Engine::new(EngineConfig {
        workers: top_workers,
        max_retries: 0,
        checkpoint_dir: None,
        recorder: Handle::from(registry.clone()),
        chaos: None,
        ..EngineConfig::default()
    })
    .run_grid(&jobs);
    assert!(instrumented.failures.is_empty(), "instrumented grid must not fail");
    assert_eq!(
        baseline_json.as_deref(),
        Some(instrumented.canonical_json().expect("records serialize").as_str()),
        "recording must not change grid results"
    );
    let snapshot = registry.snapshot();
    let counter = |key: &str| snapshot.counter(key).unwrap_or(0);
    let job_run = snapshot.histogram("engine.pool.job_run_ns");
    let scheduler = pr4::SchedulerSection {
        workers: top_workers,
        grid_jobs: jobs.len(),
        jobs_completed: counter("engine.pool.jobs_completed"),
        steals: counter("engine.pool.steals"),
        park_waits: counter("engine.pool.park_waits"),
        queue_high_water: snapshot.gauge("engine.pool.queue_high_water").map_or(0, |(_, hw)| hw),
        job_run_ns_count: job_run.map_or(0, |h| h.count),
        job_run_ns_sum: job_run.map_or(0, |h| h.sum),
    };
    let mut bench4 = pr4::load(&out_dir);
    bench4.engine_scheduler = scheduler;
    let pr4_out = pr4::save(&out_dir, &bench4);
    println!("wrote {} (scheduler section)", pr4_out.display());

    let report = ScalingReport {
        report: "BENCH_PR3".into(),
        quick,
        host_cores,
        grid_jobs: jobs.len(),
        points,
        gate,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let out = out_dir.join("BENCH_PR3.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_PR3.json");
    println!("wrote {}", out.display());
    println!("{}", report.gate);
}
