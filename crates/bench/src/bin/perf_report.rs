//! Perf smoke harness for the FACTION hot paths, the engine and the
//! persistence layer: one run, one `perf_report.json`, one gate table.
//!
//! Sections, each recording stages, values and gates into one
//! [`PerfReport`] (schema and gate table in `faction_bench::perf`):
//!
//! * GEMM: the kept naive kernel vs the blocked/packed path at 256², and
//!   naive / blocked / AVX2 at 64, 256 and 512;
//! * GDA fit and scoring (per-sample reference vs batched), and the same
//!   batched pass with a live telemetry registry in scope;
//! * MLP feature extraction, training steps (and the step/forward ratio
//!   at the 64-row training shape), one FACTION round;
//! * per-round cost vs pool size under full and incremental refit;
//! * steady-state sliding-window push+evict cost vs pool size, and the
//!   analyzer's workspace self-scan;
//! * multi-tenant serve throughput and feed latency at three scales;
//! * checkpoint bytes and codec cost, wire container vs JSON;
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
    median, repo_root, time_stage, Host, PerfOptions, PerfReport, StageTiming,
};
use faction_core::checkpoint::Checkpoint;
use faction_core::strategies::{
    faction::{FactionParams, RefitMode},
    Faction, SelectionContext, Strategy,
};
use faction_core::{ExperimentConfig, LabeledPool, OnlineModel, PoolPolicy};
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_density::{DensityScratch, FairDensityConfig, FairDensityEstimator};
use faction_engine::{Engine, EngineConfig, ExperimentJob};
use faction_linalg::kernels::{matmul_blocked, matmul_simple};
use faction_linalg::simd::matmul_simd_into;
use faction_linalg::{Matrix, SeedRng};
use faction_nn::mlp::{Mlp, MlpConfig};
use faction_nn::{BatchMeta, CrossEntropyLoss, MlpWorkspace, Sgd};
use faction_serve::{parse_workload, ServeConfig, SessionManager};
use faction_telemetry::{Handle, Histogram, Registry};
use faction_wire::{from_wire, to_wire, PayloadKind};

/// Feature dimension of the synthetic scoring/training inputs.
const D: usize = 16;
/// Pool sizes the growth sections compare (largest over smallest).
const POOL_SIZES: [usize; 3] = [250, 1000, 4000];

/// The seeded inputs the scoring, training and pool sections share.
struct Inputs {
    /// 2000 training rows, 16-d.
    train_x: Matrix,
    /// Their 4-class labels (the GDA fit's 8 components).
    train_y: Vec<usize>,
    /// Their binary labels (the MLP and pool sections).
    binary_y: Vec<usize>,
    /// Their sensitive attributes.
    train_s: Vec<i8>,
    /// 1000 candidate rows.
    cand_x: Matrix,
}

impl Inputs {
    fn new() -> Inputs {
        let (train_x, train_y, train_s) = synthetic(2000, D, 4, 23);
        let (cand_x, _, _) = synthetic(1000, D, 4, 29);
        let binary_y = train_y.iter().map(|&y| y % 2).collect();
        Inputs { train_x, train_y, binary_y, train_s, cand_x }
    }

    /// Pushes training row `i` (wrapping) into `pool`.
    fn push(&self, pool: &mut LabeledPool, i: usize) {
        let i = i % self.train_x.rows();
        pool.push(self.train_x.row(i).to_vec(), self.binary_y[i], self.train_s[i]);
    }
}

fn synthetic(n: usize, d: usize, classes: usize, seed: u64) -> (Matrix, Vec<usize>, Vec<i8>) {
    let mut rng = SeedRng::new(seed);
    let mut features = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(n);
    let mut sens = Vec::with_capacity(n);
    for i in 0..n {
        let y = i % classes;
        let s: i8 = if (i / classes).is_multiple_of(2) { 1 } else { -1 };
        let mut x = rng.standard_normal_vec(d);
        x[0] += 2.0 * y as f64;
        x[1] += f64::from(s);
        features.push_row(&x).unwrap();
        labels.push(y);
        sens.push(s);
    }
    (features, labels, sens)
}

fn random_square(rng: &mut SeedRng, dim: usize) -> Vec<f64> {
    (0..dim * dim).map(|_| rng.uniform_range(-1.0, 1.0)).collect()
}

/// Alternating sign pattern for `n` candidates.
fn alternating_sensitives(n: usize) -> Vec<i8> {
    (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect()
}

/// Conservative p99 from a log2-bucket histogram: the upper bound of the
/// bucket the 99th-percentile rank falls in.
fn histogram_p99(h: &Histogram) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = (h.count as f64 * 0.99).ceil() as u64;
    let mut seen = 0u64;
    for (i, &bucket) in h.buckets.iter().enumerate() {
        seen = seen.saturating_add(bucket);
        if seen >= rank {
            // Bucket i holds [2^(i-1), 2^i); its upper bound cannot
            // overstate by more than 2x, and never understates.
            return match i {
                0 => 0,
                1..=63 => (1u64 << i).min(h.max),
                _ => h.max,
            };
        }
    }
    h.max
}

/// GEMM: the naive reference vs the blocked path at 256², then the kernel
/// lineup through facade-free entry points, so each timing pins a kernel
/// rather than whatever the process-global dispatch resolved to.
fn gemm(report: &mut PerfReport, reps: usize) {
    let mut rng = SeedRng::new(17);
    let a = Matrix::from_vec(256, 256, random_square(&mut rng, 256)).unwrap();
    let b = Matrix::from_vec(256, 256, random_square(&mut rng, 256)).unwrap();
    let naive = report.stage(time_stage("matmul_256_naive", reps, 1, || {
        std::hint::black_box(a.matmul_naive(&b).unwrap());
    }));
    let blocked = report.stage(time_stage("matmul_256_blocked", reps, 1, || {
        std::hint::black_box(a.matmul(&b).unwrap());
    }));
    report.gate("matmul_256_speedup", naive as f64 / blocked as f64);

    // The blocked baseline is itself compiled with `-C target-cpu=native`,
    // so the AVX2 ratio over it measures headroom over autovectorization.
    let mut rng = SeedRng::new(71);
    for dim in [64usize, 256, 512] {
        let a = random_square(&mut rng, dim);
        let b = random_square(&mut rng, dim);
        let mut out = vec![0.0; dim * dim];
        report.stage(time_stage(&format!("pr9_gemm_naive_{dim}"), reps, 1, || {
            matmul_simple(&a, &b, &mut out, dim, dim, dim);
            std::hint::black_box(&out);
        }));
        let blocked = report.stage(time_stage(&format!("pr9_gemm_blocked_{dim}"), reps, 1, || {
            matmul_blocked(&a, &b, &mut out, dim, dim, dim);
            std::hint::black_box(&out);
        }));
        let simd = report.stage(time_stage(&format!("pr9_gemm_simd_{dim}"), reps, 1, || {
            matmul_simd_into(&a, &b, &mut out, dim, dim, dim);
            std::hint::black_box(&out);
        }));
        if dim == 256 {
            report.gate("simd_vs_blocked_256", blocked as f64 / simd.max(1) as f64);
        }
    }
}

/// GDA fit and scoring at the gate configuration (1000 candidates, 16-d,
/// 8 components), and the recording overhead on the batched pass.
fn scoring(report: &mut PerfReport, reps: usize, inputs: &Inputs) {
    let cfg = FairDensityConfig::default();
    let fit = |x: &Matrix| FairDensityEstimator::fit(x, &inputs.train_y, &inputs.train_s, 4, &cfg);
    report.stage(time_stage("gda_fit_2000x16", reps, 1, || {
        std::hint::black_box(fit(&inputs.train_x).unwrap());
    }));
    let est = fit(&inputs.train_x).unwrap();
    let cand_x = &inputs.cand_x;
    let n = cand_x.rows();
    let per_sample = report.stage(time_stage("gda_score_1000_per_sample", reps, 1, || {
        let mut acc = 0.0;
        for i in 0..n {
            let z = cand_x.row(i);
            acc += est.log_density(z).unwrap();
            acc += est.delta_g_all(z).unwrap().iter().sum::<f64>();
        }
        std::hint::black_box(acc);
    }));
    let mut scratch = DensityScratch::new();
    let mut log_density = vec![0.0; n];
    let mut gaps = Matrix::zeros(0, 0);
    let mut score = || {
        est.score_batch_into(cand_x, &mut scratch, &mut log_density, &mut gaps).unwrap();
        std::hint::black_box(&log_density);
    };
    let batched = report.stage(time_stage("gda_score_1000_batched", reps, 1, &mut score));
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
        [("gda_score_1000_batched_noop", noop_ns), ("gda_score_1000_batched_recorded", recorded_ns)]
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

/// MLP feature extraction, training steps at a 512-row and the 64-row
/// training batch (gating the step/forward ratio), and one full FACTION
/// selection round. Returns the trained model the pool sections score with.
fn training(report: &mut PerfReport, reps: usize, inputs: &Inputs) -> OnlineModel {
    let arch = MlpConfig::new(vec![D, 64, 32, 2], 31);
    let mut mlp = Mlp::new(&arch);
    let mut ws = MlpWorkspace::new();
    let mut feats = Matrix::zeros(0, 0);
    report.stage(time_stage("feature_extraction_1000", reps, 4, || {
        mlp.features_into(&inputs.cand_x, &mut ws, &mut feats);
        std::hint::black_box(&feats);
    }));

    let meta = BatchMeta { labels: &inputs.binary_y[..512], sensitive: &inputs.train_s[..512] };
    let mut batch = Matrix::zeros(0, 0);
    for i in 0..512 {
        batch.push_row(inputs.train_x.row(i)).unwrap();
    }
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    report.stage(time_stage("train_step_512", reps, 4, || {
        let loss = mlp.train_step_with(&batch, &meta, &CrossEntropyLoss, &mut opt, &mut ws);
        std::hint::black_box(loss);
    }));

    // Backprop against forward at the shape training really runs: one
    // 64-row batch through 16→64→32→2, both timed on this thread.
    let rows = 64;
    let meta = BatchMeta { labels: &inputs.binary_y[..rows], sensitive: &inputs.train_s[..rows] };
    let head = inputs.train_x.as_slice()[..rows * D].to_vec();
    let batch = Matrix::from_vec(rows, D, head).unwrap();
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

    let mut model = OnlineModel::new(&arch, &ExperimentConfig::quick(), 37);
    let mut pool = LabeledPool::new();
    for i in 0..300 {
        inputs.push(&mut pool, i);
    }
    model.retrain(&pool, &CrossEntropyLoss);
    let mut strategy = Faction::new(FactionParams::default());
    let cand_sens = alternating_sensitives(inputs.cand_x.rows());
    let mut rng = SeedRng::new(41);
    report.stage(time_stage("faction_round_1000", reps, 1, || {
        let ctx = SelectionContext {
            model: &model,
            pool: &pool,
            candidates: &inputs.cand_x,
            candidate_sensitives: &cand_sens,
            num_classes: 2,
        };
        std::hint::black_box(strategy.desirability(&ctx, &mut rng));
    }));
    model
}

/// Per-round cost vs pool size, full vs incremental refit. A sliding window
/// holds the pool at each size; every timed round pushes 8 fresh labels (8
/// adds + 8 evictions through the delta log) and scores 16 candidates, so
/// the candidate-side cost is constant and the refit cost is what varies:
/// full refit re-extracts and refits the whole pool (linear in pool size),
/// incremental refit replays 16 rank-1 up/downdates (flat).
fn refit_growth(report: &mut PerfReport, quick: bool, inputs: &Inputs, model: &OnlineModel) {
    let reps = if quick { 5 } else { 15 };
    let (cands, _, _) = synthetic(16, D, 2, 53);
    let cand_sens = alternating_sensitives(16);
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
                    model,
                    pool,
                    candidates: &cands,
                    candidate_sensitives: &cand_sens,
                    num_classes: 2,
                })
            };
            // Warm-up round: anchors the incremental state (and reaches the
            // scratch high-water mark) so the timed rounds are steady-state.
            std::hint::black_box(score(&pool));
            let ns = report.stage(time_stage(&format!("pr6_round_{label}_{size}"), reps, 1, || {
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
/// whatever the pool size; a memmoving front eviction grows linearly. Then
/// the analyzer's workspace self-scan, median of three.
fn eviction_and_analyzer(report: &mut PerfReport, quick: bool, inputs: &Inputs) {
    let reps = if quick { 5 } else { 15 };
    let mut push_ns = Vec::new();
    for size in POOL_SIZES {
        let mut pool = LabeledPool::with_policy(PoolPolicy::SlidingWindow(size), 61);
        let mut next = 0usize;
        while pool.len() < size {
            inputs.push(&mut pool, next);
            next += 1;
        }
        let ns = report.stage(time_stage(&format!("pr7_push_evict_{size}"), reps, 64, || {
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

/// Multi-tenant serve throughput and feed latency. Each scale drives N
/// sessions (4 tenants, cheap single-task streams) through the full
/// SessionManager wave machinery: open, one task, two rounds, close.
/// Latency is the `serve.feed_ns` histogram the manager records around
/// `OnlineSession::feed`. Record-only: per-session cost is constant by
/// design, so throughput saturates at the smallest scale on a small host.
fn serve_scaling(report: &mut PerfReport, quick: bool) {
    let workers = faction_engine::resolve_workers(None);
    report.value("serve.workers", workers as f64);
    let scales: &[usize] = if quick { &[16, 64, 256] } else { &[64, 512, 2048] };
    let mut rates = Vec::new();
    for &sessions in scales {
        let mut w = String::new();
        for i in 0..sessions {
            w += &format!(
                "open s{i} tenant=t{} dataset=rcmnist strategy=random seed={} \
                 tasks=1 samples=40 budget=4 batch=2 warm=8\n",
                i % 4,
                100 + i
            );
        }
        w += "drain\n";
        for i in 0..sessions {
            w += &format!("task s{i} 0\nround s{i}\nround s{i}\n");
        }
        for i in 0..sessions {
            w += &format!("close s{i}\n");
        }
        let requests =
            parse_workload(&w, &ExperimentConfig::quick()).expect("serve workload parses");
        let registry = Arc::new(Registry::new());
        let mut manager = SessionManager::new(ServeConfig {
            workers,
            max_sessions: sessions,
            recorder: Handle::from(registry.clone()),
            ..ServeConfig::default()
        });
        let start = Instant::now();
        manager.run(&requests);
        let wall = start.elapsed();
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("serve.sessions.closed"),
            Some(sessions as u64),
            "the serve workload must close every session"
        );
        let feed = snapshot.histogram("serve.feed_ns").expect("serve.feed_ns recorded");
        let rate = sessions as f64 / wall.as_secs_f64();
        rates.push(rate);
        report.value(format!("serve.{sessions}_sessions.wall_ms"), wall.as_millis() as f64);
        report.value(format!("serve.{sessions}_sessions.sessions_per_sec"), rate);
        report.value(format!("serve.{sessions}_sessions.feed_p99_ns"), histogram_p99(feed) as f64);
        report.value(format!("serve.{sessions}_sessions.feeds"), feed.count as f64);
    }
    report.value("serve.throughput_ratio", rates[2] / rates[0].max(f64::MIN_POSITIVE));
}

/// Checkpoint bytes and codec cost: the wire container against both JSON
/// renders of the same `Checkpoint`. The gated claim is on the pretty
/// debug export, the format the checkpoint path was demoted from.
fn wire_sizes(report: &mut PerfReport, quick: bool) {
    let reps = if quick { 3 } else { 9 };
    let mut ratios = (0.0, 0.0);
    for pool_size in POOL_SIZES {
        let mut rng = SeedRng::new(0xF10 + pool_size as u64);
        let mut pool = LabeledPool::new();
        for i in 0..pool_size {
            let y = i % 2;
            let mut x = rng.standard_normal_vec(16);
            x[0] += 2.0 * y as f64;
            pool.push(x, y, if i % 3 == 0 { 1 } else { -1 });
        }
        let mlp = Mlp::new(&MlpConfig::new(vec![16, 32, 2], 7));
        let ckpt = Checkpoint::capture(&mlp, &pool, pool_size);
        let wire = to_wire(PayloadKind::Checkpoint, &ckpt).expect("checkpoint encodes");
        let compact = serde_json::to_string(&ckpt).expect("checkpoint renders").len();
        let pretty = serde_json::to_string_pretty(&ckpt).expect("checkpoint renders").len();
        let mut sink = 0usize;
        report.stage(time_stage(&format!("wire_encode_{pool_size}"), reps, 1, || {
            sink += to_wire(PayloadKind::Checkpoint, &ckpt).unwrap().len();
        }));
        report.stage(time_stage(&format!("wire_decode_{pool_size}"), reps, 1, || {
            let decoded: Checkpoint = from_wire(PayloadKind::Checkpoint, &wire).unwrap();
            sink += std::hint::black_box(&decoded).next_task;
        }));
        report.stage(time_stage(&format!("json_encode_{pool_size}"), reps, 1, || {
            sink += serde_json::to_string(&ckpt).unwrap().len();
        }));
        std::hint::black_box(sink);
        report.value(format!("wire.{pool_size}.wire_bytes"), wire.len() as f64);
        report.value(format!("wire.{pool_size}.compact_json_bytes"), compact as f64);
        report.value(format!("wire.{pool_size}.pretty_json_bytes"), pretty as f64);
        ratios = (compact as f64 / wire.len() as f64, pretty as f64 / wire.len() as f64);
    }
    report.value("compact_ratio_4000", ratios.0);
    report.gate("pretty_ratio_4000", ratios.1);
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
    let model = training(&mut report, reps, &inputs);
    refit_growth(&mut report, quick, &inputs, &model);
    eviction_and_analyzer(&mut report, quick, &inputs);
    serve_scaling(&mut report, quick);
    wire_sizes(&mut report, quick);
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
