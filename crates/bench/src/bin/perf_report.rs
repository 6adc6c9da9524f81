//! Perf smoke harness for the FACTION hot paths, the engine and the
//! persistence layer: one run, one `perf_report.json`, one gate table.
//!
//! Every stage feeds a gate or runs at a shape a paper-scale RCMNIST run
//! has (perfbench's `paper_run`): 16-d inputs, a 16→64→32→2 MLP trained on
//! 64-row batches, 830 candidates per task, a labeled pool of up to 2,500
//! rows over 2 classes × 2 sensitive groups. Sections, each recording
//! stages, values and gates into one [`PerfReport`] (schema and gate table
//! in `faction_bench::perf`):
//!
//! * GEMM: naive / blocked / AVX2 over the forward GEMMs of one training
//!   step;
//! * GDA fit and scoring on the MLP's 32-d features (per-sample reference
//!   vs batched), and the same batched pass with a live telemetry registry
//!   in scope;
//! * MLP feature extraction, the step/forward ratio at the training shape,
//!   one FACTION round;
//! * per-round cost vs pool size under full and incremental refit;
//! * steady-state sliding-window push+evict cost vs pool size, and the
//!   analyzer's workspace self-scan;
//! * a session snapshot's compact JSON bytes over its wire bytes;
//! * runner phase-span coverage on an instrumented job;
//! * a reduced grid at 1/2/4(/nproc) workers, checked byte-identical at
//!   every worker count, plus an instrumented run's scheduler counters.
//!
//! All inputs are seeded, so the work is identical across runs; every
//! compared pair is measured in the same process, which is what the gated
//! ratios refer to. The process exits 1 when a gate fails and 2 on a
//! malformed command line.
//!
//! Usage: `cargo run --release -p faction-bench --bin perf_report --
//! [--quick] [--out-dir DIR]`. `--quick` shrinks repetition counts (problem
//! sizes are unchanged); `DIR` defaults to `target/bench-smoke/`.

use std::sync::Arc;
use std::time::Instant;

use faction_bench::perf::{
    median, repo_root, time_interleaved, time_stage, Host, PerfOptions, PerfReport, StageTiming,
};
use faction_core::strategies::{
    faction::{FactionParams, RefitMode},
    Faction, SelectionContext, Strategy,
};
use faction_core::{ExperimentConfig, LabeledPool, OnlineSession, PoolPolicy};
use faction_data::datasets::Dataset;
use faction_data::{Scale, Task};
use faction_density::{DensityScratch, FairDensityEstimator};
use faction_engine::{Engine, EngineConfig, ExperimentJob};
use faction_linalg::kernels::{matmul_blocked, matmul_simple};
use faction_linalg::simd::matmul_simd_into;
use faction_linalg::{Matrix, SeedRng};
use faction_nn::mlp::{Mlp, MlpConfig};
use faction_nn::{BatchMeta, CrossEntropyLoss, MlpWorkspace, Sgd};
use faction_telemetry::{Handle, Registry};

/// Input dimension of the RCMNIST stream.
const D: usize = 16;
/// The MLP the system trains: 16→64→32→2.
const LAYERS: [usize; 4] = [D, 64, 32, 2];
/// Rows of one training batch.
const BATCH_ROWS: usize = 64;
/// Labeled-pool rows at the end of a paper-scale run (100 warm-start
/// labels plus 200 per task over 12 tasks).
const POOL_ROWS: usize = 2500;
/// Pool sizes the growth sections compare (largest over smallest).
const POOL_SIZES: [usize; 3] = [250, 1000, 4000];

/// The paper-scale RCMNIST stream's shapes: a session whose pool holds the
/// stream's first [`POOL_ROWS`] samples, and the last task as candidates.
struct Inputs {
    /// Warm-started on [`POOL_ROWS`] labels with the paper configuration,
    /// so its model is the standard spectrally normalized MLP trained on
    /// that pool.
    session: OnlineSession,
    /// The strategy the session's training loss comes from.
    strategy: Faction,
    /// The last task's 830 samples: one round's candidates.
    candidates: Matrix,
    /// Their sensitive attributes.
    candidate_sensitives: Vec<i8>,
}

impl Inputs {
    fn new() -> Inputs {
        let stream = Dataset::Rcmnist.stream(23, Scale::Full);
        let last = stream.tasks.last().expect("the stream has tasks");
        let samples =
            stream.tasks.iter().flat_map(|t| &t.samples).take(POOL_ROWS).cloned().collect();
        let strategy = Faction::new(FactionParams::default());
        let cfg = ExperimentConfig { warm_start: POOL_ROWS, ..ExperimentConfig::paper() };
        let arch = faction_nn::presets::standard(D, 2, 37);
        let mut session = OnlineSession::new(&arch, &cfg, 37, 2, strategy.training_loss());
        session.warm_start(&Task { samples, ..last.clone() });
        Inputs {
            session,
            strategy,
            candidates: last.features(),
            candidate_sensitives: last.sensitives(),
        }
    }

    /// Pushes row `i` (wrapping) of the session's pool into `pool`.
    fn push(&self, pool: &mut LabeledPool, i: usize) {
        let source = self.session.pool();
        let i = i % source.len();
        pool.push(source.features().row(i).to_vec(), source.labels()[i], source.sensitives()[i]);
    }
}

/// GEMM: the forward products of one training step (a 64-row batch
/// through 16→64→32→2, the shapes of perfbench's `linalg.gemm_*` probes)
/// per kernel, through facade-free entry points, so each timing pins a
/// kernel rather than whatever the process-global dispatch resolved to.
/// The blocked path hands the 32→2 layer (`n` below the register tile) to
/// the naive loop on every backend.
fn gemm(report: &mut PerfReport, reps: usize) {
    let mut rng = SeedRng::new(17);
    let mut fill =
        |len: usize| -> Vec<f64> { (0..len).map(|_| rng.uniform_range(-1.0, 1.0)).collect() };
    let layers: Vec<(usize, usize, Vec<f64>, Vec<f64>)> = LAYERS
        .windows(2)
        .map(|w| (w[0], w[1], fill(BATCH_ROWS * w[0]), fill(w[0] * w[1])))
        .collect();
    type Kernel = fn(&[f64], &[f64], &mut [f64], usize, usize, usize);
    let layers = &layers;
    let run = |kernel: Kernel| {
        let mut out = vec![0.0; BATCH_ROWS * LAYERS[1]];
        move || {
            for (fan_in, fan_out, x, w) in layers {
                let out = &mut out[..BATCH_ROWS * fan_out];
                out.fill(0.0);
                kernel(x, w, out, BATCH_ROWS, *fan_in, *fan_out);
            }
            std::hint::black_box(&out);
        }
    };
    let (mut naive, mut blocked, mut simd) =
        (run(matmul_simple), run(matmul_blocked), run(matmul_simd_into));
    let timings = time_interleaved(
        7 * reps,
        25,
        [
            ("gemm_train_forward_naive", &mut naive),
            ("gemm_train_forward_blocked", &mut blocked),
            ("gemm_train_forward_simd", &mut simd),
        ],
    );
    let [naive, blocked, simd] = timings.map(|t| report.stage(t) as f64);
    report.gate("forward_gemm_blocked_speedup", naive / blocked);
    // Without AVX2 the simd entry runs the blocked path itself.
    let simd_available = report.host.simd_available;
    report.gate_if("forward_gemm_simd_speedup", blocked / simd, simd_available);
}

/// GDA fit and scoring at the system shape: fit on the trained MLP's 32-d
/// features of the 2,500-row pool (2 classes × 2 groups), score the 830
/// candidates, and the recording overhead on the batched pass.
fn scoring(report: &mut PerfReport, reps: usize, inputs: &Inputs) {
    let cfg = FactionParams::default().density;
    let pool = inputs.session.pool();
    let mlp = inputs.session.model().mlp();
    let pool_z = mlp.features(pool.features());
    let fit = || FairDensityEstimator::fit(&pool_z, pool.labels(), pool.sensitives(), 2, &cfg);
    report.stage(time_stage("gda_fit_2500x32", reps, 1, || {
        std::hint::black_box(fit().unwrap());
    }));
    let est = fit().unwrap();
    let cand_z = mlp.features(&inputs.candidates);
    let n = cand_z.rows();
    let mut per_sample = || {
        let mut acc = 0.0;
        for i in 0..n {
            let z = cand_z.row(i);
            acc += est.log_density(z).unwrap();
            acc += est.delta_g_all(z).unwrap().iter().sum::<f64>();
        }
        std::hint::black_box(acc);
    };
    let mut scratch = DensityScratch::new();
    let mut log_density = vec![0.0; n];
    let mut gaps = Matrix::zeros(0, 0);
    let mut score = || {
        est.score_batch_into(&cand_z, &mut scratch, &mut log_density, &mut gaps).unwrap();
        std::hint::black_box(&log_density);
    };
    let timings = time_interleaved(
        3 * reps,
        1,
        [("gda_score_830_per_sample", &mut per_sample), ("gda_score_830_batched", &mut score)],
    );
    let [per_sample, batched] = timings.map(|t| report.stage(t));
    report.gate("gda_batch_speedup", per_sample as f64 / batched as f64);

    // The scoring kernels emit one counter and one histogram observation
    // per batch, so a live registry scope must be indistinguishable from
    // the no-op path. The paths are timed in adjacent pairs, which share
    // the host's state, and the estimate is the median of the per-pair
    // relative differences, so frequency drift and neighbor noise cancel
    // within a pair. The order inside a pair alternates so neither path
    // always runs second.
    let registry = Arc::new(Registry::new());
    let handle = Handle::from(registry.clone());
    let pairs = 3 * reps.max(7);
    let calls = 8;
    let mut noop_ns: Vec<u64> = Vec::with_capacity(pairs);
    let mut recorded_ns: Vec<u64> = Vec::with_capacity(pairs);
    let mut overhead_pct: Vec<f64> = Vec::with_capacity(pairs);
    let mut timed = |recording: bool| {
        let _scope = recording.then(|| handle.enter());
        let start = Instant::now();
        for _ in 0..calls {
            score();
        }
        (start.elapsed().as_nanos() / calls as u128) as u64
    };
    for pair in 0..pairs {
        let (noop, recorded) = if pair % 2 == 0 {
            let noop = timed(false);
            (noop, timed(true))
        } else {
            let recorded = timed(true);
            (timed(false), recorded)
        };
        noop_ns.push(noop);
        recorded_ns.push(recorded);
        overhead_pct.push((recorded as f64 - noop as f64) / noop as f64 * 100.0);
    }
    assert!(
        registry.snapshot().counter("density.gda.score_batches").unwrap_or(0) > 0,
        "the recorded pass must actually have recorded"
    );
    for (name, mut ns) in
        [("gda_score_830_batched_noop", noop_ns), ("gda_score_830_batched_recorded", recorded_ns)]
    {
        let median_ns = median(&mut ns);
        report.stage(StageTiming {
            name: name.into(),
            median_ns,
            calls_per_sample: calls,
            samples: pairs,
        });
    }
    overhead_pct.sort_by(f64::total_cmp);
    report.gate("telemetry_overhead_pct", overhead_pct[pairs / 2]);
}

/// MLP feature extraction of the 830 candidates, one training step over
/// one forward pass at the training shape (gating the step/forward ratio),
/// and one full FACTION selection round against the 2,500-row pool.
fn training(report: &mut PerfReport, reps: usize, inputs: &Inputs) {
    let arch = MlpConfig::new(LAYERS.to_vec(), 31);
    let mut mlp = Mlp::new(&arch);
    let mut ws = MlpWorkspace::new();
    let mut feats = Matrix::zeros(0, 0);
    report.stage(time_stage("feature_extraction_830", reps, 4, || {
        mlp.features_into(&inputs.candidates, &mut ws, &mut feats);
        std::hint::black_box(&feats);
    }));

    // Backprop against forward at the shape training really runs: one
    // 64-row batch through 16→64→32→2, both timed on this thread.
    let pool = inputs.session.pool();
    let meta = BatchMeta {
        labels: &pool.labels()[..BATCH_ROWS],
        sensitive: &pool.sensitives()[..BATCH_ROWS],
    };
    let head = pool.features().as_slice()[..BATCH_ROWS * D].to_vec();
    let batch = Matrix::from_vec(BATCH_ROWS, D, head).unwrap();
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let mut logits = Matrix::zeros(0, 0);
    let forward = report.stage(time_stage("forward_64", reps, 200, || {
        mlp.logits_into(&batch, &mut ws, &mut logits);
        std::hint::black_box(&logits);
    }));
    let step = report.stage(time_stage("train_step_64", reps, 200, || {
        let loss = mlp.train_step_with(&batch, &meta, &CrossEntropyLoss, &mut opt, &mut ws);
        std::hint::black_box(loss);
    }));
    report.gate("train_step_over_forward", step as f64 / forward.max(1) as f64);

    let mut strategy = Faction::new(FactionParams::default());
    let mut rng = SeedRng::new(41);
    report.stage(time_stage("faction_round_830", reps, 1, || {
        let ctx = SelectionContext {
            model: inputs.session.model(),
            pool: inputs.session.pool(),
            candidates: &inputs.candidates,
            candidate_sensitives: &inputs.candidate_sensitives,
            num_classes: 2,
        };
        std::hint::black_box(strategy.desirability(&ctx, &mut rng));
    }));
}

/// Per-round cost vs pool size, full vs incremental refit. A sliding window
/// holds the pool at each size; every timed round pushes 8 fresh labels (8
/// adds + 8 evictions through the delta log) and scores 16 candidates, so
/// the candidate-side cost is constant and the refit cost is what varies:
/// full refit re-extracts and refits the whole pool (linear in pool size),
/// incremental refit replays 16 rank-1 up/downdates (flat).
fn refit_growth(report: &mut PerfReport, quick: bool, inputs: &Inputs) {
    let reps = if quick { 5 } else { 15 };
    let cands = Matrix::from_vec(16, D, inputs.candidates.as_slice()[..16 * D].to_vec()).unwrap();
    let cand_sens = &inputs.candidate_sensitives[..16];
    // Per refit mode, the round medians at each pool size.
    let mut round_ns = [Vec::new(), Vec::new()];
    for size in POOL_SIZES {
        let incremental = RefitMode::Incremental { reanchor_every: 64 };
        for (mode, (label, refit)) in
            [("full", RefitMode::Full), ("incremental", incremental)].into_iter().enumerate()
        {
            let mut pool = LabeledPool::with_policy(PoolPolicy::SlidingWindow(size), 47);
            let mut next = 0usize;
            let mut push_rows = |pool: &mut LabeledPool, count: usize| {
                for _ in 0..count {
                    inputs.push(pool, next);
                    next += 1;
                }
            };
            push_rows(&mut pool, size);
            let strategy = Faction::new(FactionParams { refit, ..Default::default() });
            let score = |pool: &LabeledPool| {
                strategy.raw_scores(&SelectionContext {
                    model: inputs.session.model(),
                    pool,
                    candidates: &cands,
                    candidate_sensitives: cand_sens,
                    num_classes: 2,
                })
            };
            // Warm-up round: anchors the incremental state (and reaches the
            // scratch high-water mark) so the timed rounds are steady-state.
            std::hint::black_box(score(&pool));
            let name = format!("refit_round_{label}_{size}");
            let ns = report.stage(time_stage(&name, reps, 1, || {
                push_rows(&mut pool, 8);
                std::hint::black_box(score(&pool));
            }));
            round_ns[mode].push(ns as f64);
        }
    }
    let [full, incremental] = &round_ns;
    report.gate("incremental_growth", incremental[2] / incremental[0]);
    report.gate("full_refit_growth", full[2] / full[0]);
}

/// Steady-state push+evict cost vs pool size: every timed push is one back
/// append plus one front eviction. With the tombstone head this is O(d)
/// whatever the pool size; a memmoving front eviction grows linearly. The
/// window is filled and turned over once before timing, so the timed
/// pushes run on buffers that have stopped growing. Then the analyzer's
/// workspace self-scan, median of three.
fn eviction_and_analyzer(report: &mut PerfReport, quick: bool, inputs: &Inputs) {
    let reps = if quick { 5 } else { 15 };
    let mut push_ns = Vec::new();
    for size in POOL_SIZES {
        let mut pool = LabeledPool::with_policy(PoolPolicy::SlidingWindow(size), 61);
        let mut next = 0usize;
        while next < 2 * size {
            inputs.push(&mut pool, next);
            next += 1;
        }
        let ns = report.stage(time_stage(&format!("push_evict_{size}"), reps, 64, || {
            inputs.push(&mut pool, next);
            next += 1;
        }));
        push_ns.push(ns);
    }
    report.gate("eviction_growth", push_ns[2] as f64 / push_ns[0].max(1) as f64);

    let root = repo_root();
    let mut scan_ns: Vec<u64> = Vec::new();
    let mut scan = None;
    for _ in 0..3 {
        let start = Instant::now();
        scan = Some(faction_analyzer::analyze_workspace(&root).expect("workspace self-scan"));
        scan_ns.push(start.elapsed().as_nanos() as u64);
    }
    let scan = scan.expect("at least one scan ran");
    report.value("analyzer_self_scan_ms", (median(&mut scan_ns) / 1_000_000) as f64);
    report.value("analyzer_files_scanned", scan.files_scanned as f64);
    report.gate("analyzer_findings", scan.findings.len() as f64);
}

/// Session snapshot bytes: the compact JSON `faction_cli inspect` prints
/// over the wire container serve stashes, for the session with the
/// 2,500-row pool (the shape of perfbench's `wire.snapshot_bytes`).
fn snapshot_bytes(report: &mut PerfReport, inputs: &Inputs) {
    let snapshot = inputs.session.snapshot(&inputs.strategy);
    let wire = snapshot.to_wire_bytes().len();
    let json = serde_json::to_string(&snapshot).expect("snapshot renders").len();
    report.value("snapshot.pool_rows", inputs.session.pool().len() as f64);
    report.value("snapshot.wire_bytes", wire as f64);
    report.value("snapshot.compact_json_bytes", json as f64);
    report.gate("snapshot_json_over_wire", json as f64 / wire as f64);
}

/// One FACTION job through the engine with a live registry: the runner's
/// top-level phase spans (eval/selection/train; score and acquire nest
/// inside selection) must account for nearly all of its own wall clock,
/// or the runtime decomposition is missing a phase.
fn phase_coverage(report: &mut PerfReport) {
    let registry = Arc::new(Registry::new());
    let engine = Engine::new(EngineConfig {
        workers: 1,
        max_retries: 0,
        checkpoint_dir: None,
        recorder: Handle::from(registry.clone()),
        chaos: None,
        ..EngineConfig::default()
    });
    let cfg = ExperimentConfig {
        budget: 40,
        acquisition_batch: 10,
        warm_start: 40,
        epochs_per_iteration: 2,
        train_batch_size: 32,
        learning_rate: 0.05,
        ..ExperimentConfig::quick()
    };
    let mut job = ExperimentJob::new(Dataset::Rcmnist, "faction", 0, cfg, Scale::Quick);
    job.arch = faction_engine::ArchPreset::Tiny;
    job.truncate_tasks = Some(3);
    job.truncate_samples = Some(250);
    let outcome = engine.run_grid(std::slice::from_ref(&job));
    assert!(outcome.failures.is_empty(), "coverage job failed: {:?}", outcome.failures);
    let end_to_end_ns =
        (outcome.records[0].as_ref().expect("coverage job completed").total_seconds * 1e9) as u64;
    let snapshot = registry.snapshot();
    let mut phase_sum_ns = 0u64;
    for name in ["core.runner.eval_ns", "core.runner.selection_ns", "core.runner.train_ns"] {
        let h =
            snapshot.histogram(name).unwrap_or_else(|| panic!("phase histogram {name} missing"));
        report.value(format!("phase.{name}.sum_ns"), h.sum as f64);
        report.value(format!("phase.{name}.count"), h.count as f64);
        phase_sum_ns += h.sum;
    }
    report.value("phase.end_to_end_ns", end_to_end_ns as f64);
    report.value("phase.sum_ns", phase_sum_ns as f64);
    report.gate("phase_coverage", phase_sum_ns as f64 / end_to_end_ns as f64);
}

/// A reduced evaluation grid (2 datasets × 3 cheap strategies × 4 seeds,
/// truncated streams, tiny architecture): big enough to keep every worker
/// busy, small enough to run in seconds.
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

/// Grid wall time at 1/2/4(/nproc) workers with the no-op recorder, every
/// worker count asserted byte-identical to the 1-worker run. The ≥3×
/// claim needs 4+ cores; below that oversubscribed workers measure
/// scheduling overhead, so the gate records `not-applicable`. Then one
/// instrumented run at the top worker count, asserted identical to the
/// baseline, reports the pool's scheduler counters.
fn grid_scaling(report: &mut PerfReport, quick: bool) {
    let reps = if quick { 1 } else { 3 };
    let cores = report.host.cores;
    let jobs = reduced_grid();
    report.value("grid.jobs", jobs.len() as f64);
    let mut worker_counts = vec![1, 2, 4];
    if cores > 4 {
        worker_counts.push(cores);
    }
    let engine = |workers: usize, recorder: Handle| {
        Engine::new(EngineConfig {
            workers,
            max_retries: 0,
            checkpoint_dir: None,
            recorder,
            chaos: None,
            ..EngineConfig::default()
        })
    };

    let mut baseline: Option<(String, u64)> = None;
    for &workers in &worker_counts {
        let engine = engine(workers, Handle::noop());
        let mut canonical = String::new();
        let ns = report.stage(time_stage(&format!("grid_{workers}_workers"), reps, 1, || {
            let outcome = engine.run_grid(&jobs);
            assert!(outcome.failures.is_empty(), "reduced grid failed: {:?}", outcome.failures);
            canonical = outcome.canonical_json().expect("records serialize");
        }));
        let (base_json, base_ns) = baseline.get_or_insert_with(|| (canonical.clone(), ns));
        assert!(*base_json == canonical, "workers={workers} diverged from the 1-worker results");
        let speedup = *base_ns as f64 / ns as f64;
        report.value(format!("grid.speedup_{workers}_workers"), speedup);
        if workers == 4 {
            report.gate_if("grid_speedup_4_workers", speedup, cores >= 4);
        }
    }

    let top = *worker_counts.last().expect("at least one worker count");
    let registry = Arc::new(Registry::new());
    let instrumented = engine(top, Handle::from(registry.clone())).run_grid(&jobs);
    assert!(instrumented.failures.is_empty(), "instrumented grid failed");
    assert_eq!(
        baseline.map(|(json, _)| json),
        Some(instrumented.canonical_json().expect("records serialize")),
        "recording must not change grid results"
    );
    let snapshot = registry.snapshot();
    let job_run = snapshot.histogram("engine.pool.job_run_ns");
    let high_water = snapshot.gauge("engine.pool.queue_high_water").map_or(0, |(_, hw)| hw);
    let counters = [
        ("workers", top as u64),
        ("jobs_completed", snapshot.counter("engine.pool.jobs_completed").unwrap_or(0)),
        ("steals", snapshot.counter("engine.pool.steals").unwrap_or(0)),
        ("park_waits", snapshot.counter("engine.pool.park_waits").unwrap_or(0)),
        ("queue_high_water", high_water),
        ("job_run_ns_count", job_run.map_or(0, |h| h.count)),
        ("job_run_ns_sum", job_run.map_or(0, |h| h.sum)),
    ];
    for (name, value) in counters {
        report.value(format!("scheduler.{name}"), value as f64);
    }
}

fn main() {
    let options = PerfOptions::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perf_report: {e}\n{}", PerfOptions::USAGE);
        std::process::exit(2);
    });
    let quick = options.quick;
    let reps = if quick { 3 } else { 11 };
    let host = Host {
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        simd_available: faction_linalg::dispatch::simd_available(),
    };
    let mut report = PerfReport::new(host, quick);

    let inputs = Inputs::new();
    gemm(&mut report, reps);
    scoring(&mut report, reps, &inputs);
    training(&mut report, reps, &inputs);
    refit_growth(&mut report, quick, &inputs);
    eviction_and_analyzer(&mut report, quick, &inputs);
    snapshot_bytes(&mut report, &inputs);
    phase_coverage(&mut report);
    grid_scaling(&mut report, quick);

    std::fs::create_dir_all(&options.out_dir)
        .unwrap_or_else(|e| panic!("create {}: {e}", options.out_dir.display()));
    let out = options.out_dir.join("perf_report.json");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, format!("{json}\n")).expect("write perf_report.json");
    print!("{}", report.render());
    println!("wrote {}", out.display());
    std::process::exit(report.exit_status());
}
