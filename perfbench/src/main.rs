//! End-to-end benchmark of the FACTION reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_run|grid_lineup|serve_mixed|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing recorded;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. Every run checks its outputs; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`, and
//! the exit code is non-zero when a check failed. The human report goes to
//! standard error. Files are written only under the build's target
//! directory (or `--out`). See `perfbench/README.md` for the workloads and
//! the layer → end-to-end metric map.

mod gen;
mod grid;
mod host;
mod paper;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use faction_telemetry::{Handle, Registry};

use report::Report;
use stats::{median, percentile, top_percentile};
use trace::Tracer;

/// Workload names, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["paper_run", "grid_lineup", "serve_mixed"];

/// Output digests of the default seed, one `workload digest` per line.
const PINNED: &str = include_str!("../digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: faction-perfbench --workload paper_run|grid_lineup|serve_mixed|all \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: gen::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds must be a number".to_string())?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all (got `{}`)",
            args.workload
        ));
    }
    Ok(args)
}

/// Directory for the benchmark's files: next to the executable, i.e. inside
/// the cargo target directory.
fn work_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(Path::parent)
                .map(|target| target.join("perfbench"))
        })
        .unwrap_or_else(|| PathBuf::from("target/perfbench"))
}

/// Runs `unit` until `seconds` have passed and at least `min` times.
fn repeat<T>(seconds: f64, min: usize, mut unit: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(unit());
    }
    out
}

/// Runs `f` and returns its value with its wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Sets up `times` times; returns the last set-up and every duration.
/// Workloads call this again after every timed unit, so the reported median
/// samples the host across the whole run instead of one instant.
fn setup_samples<T>(times: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let (v, s) = timed(&mut f);
        secs.push(s);
        last = Some(v);
    }
    (last.expect("set up at least once"), secs)
}

/// Checks `digest` against the pinned digest when running the default seed.
fn check_pinned(report: &mut Report, workload: &str, seed: u64, digest: &str) {
    report.note(format!("output digest (seed {seed}): {digest}"));
    if seed != gen::DEFAULT_SEED {
        return;
    }
    let pinned = PINNED
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| d.trim());
    report.check(
        format!("{workload} output digest equals the pinned default-seed digest ({pinned:?})"),
        pinned == Some(digest),
    );
}

/// `wave_ms_p50` / `wave_ms_p90`, with the sample count and the highest
/// percentile the count supports.
fn wave_metrics(report: &mut Report, what: &str, waves_ms: &[f64]) {
    report.metric("wave_ms_p50", percentile(waves_ms, 50.0), "ms");
    report.metric("wave_ms_p90", percentile(waves_ms, 90.0), "ms");
    let n = waves_ms.len();
    match top_percentile(n) {
        Some(p) => report.note(format!(
            "waves are {what}: n={n}; highest percentile with >=10 samples beyond: p{p} = {:.3} ms",
            percentile(waves_ms, p)
        )),
        None => report.note(format!(
            "waves are {what}: n={n}; too few for any percentile with 10 beyond"
        )),
    }
}

/// `run_s`, `jobs_per_s` and `rounds_per_s` from each unit's wall seconds
/// and rounds; `jobs` is the jobs one unit completes.
fn throughput(report: &mut Report, units: &[(f64, f64)], jobs: f64) {
    let walls: Vec<f64> = units.iter().map(|u| u.0).collect();
    let jobs_per_s: Vec<f64> = walls.iter().map(|w| jobs / w).collect();
    let rounds_per_s: Vec<f64> = units.iter().map(|(w, r)| r / w).collect();
    report.metric("run_s", median(&walls), "s");
    report.metric("jobs_per_s", median(&jobs_per_s), "jobs/s");
    report.metric("rounds_per_s", median(&rounds_per_s), "rounds/s");
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    report.note(format!("unit walls (s): {}", listed.join(" ")));
}

// ---------------------------------------------------------------- paper_run

fn paper_e2e(seed: u64, seconds: f64, report: &mut Report) {
    let (input, mut setups) = setup_samples(5, || paper::setup(seed));
    // No warm-up: every CLI run pays its own cold start, and the median
    // absorbs the first run's. The first run fixes the reference output.
    let mut reference: Option<String> = None;
    let mut tasks_ms = Vec::new();
    let units = repeat(seconds, 3, || {
        let (record, wall) = timed(|| paper::run(&input));
        let canonical = paper::canonical(&record);
        let reference = reference.get_or_insert_with(|| canonical.clone());
        report.tally.record(canonical == *reference);
        tasks_ms.extend(record.records.iter().map(|t| t.seconds * 1e3));
        setups.extend(setup_samples(3, || paper::setup(seed)).1);
        (wall, paper::rounds(&record, &input.cfg) as f64)
    });
    let reference = reference.expect("at least one run");
    check_pinned(
        report,
        "paper_run",
        seed,
        &gen::digest(reference.as_bytes()),
    );
    report.check(
        format!(
            "{} runs reproduce the first run's canonical record",
            units.len()
        ),
        report.tally.failed == 0,
    );
    report.metric("setup_s", median(&setups), "s");
    throughput(report, &units, 1.0);
    wave_metrics(
        report,
        "tasks (evaluate + 4 rounds, timed by the runner)",
        &tasks_ms,
    );
    report.note(format!(
        "{} timed runs, {} set-ups; jobs are runs",
        units.len(),
        setups.len()
    ));
}

// -------------------------------------------------------------- grid_lineup

/// Counts one grid batch: each job is one operation, failed unless its
/// canonical record equals the reference's.
fn check_grid(report: &mut Report, per_job: &[Option<String>], reference: &[Option<String>]) {
    for (got, want) in per_job.iter().zip(reference) {
        report.tally.record(got.is_some() && got == want);
    }
}

fn grid_e2e(seed: u64, seconds: f64, scratch: &Path, report: &mut Report) {
    let grid_setup = || {
        let input = grid::setup(seed, scratch);
        grid::reset(&input);
        input
    };
    let (input, mut setups) = setup_samples(25, grid_setup);
    let jobs = input.jobs.len() as f64;
    // No warm-up, as for paper_run; the first batch fixes the reference.
    let mut reference: Option<Vec<Option<String>>> = None;
    let (mut job_ms, mut failed, mut resumed, mut digest) = (Vec::new(), 0, 0, String::new());
    let units = repeat(seconds, 3, || {
        grid::reset(&input);
        let (outcome, wall) = timed(|| grid::run(&input));
        let per_job = grid::canonical_per_job(&outcome.records);
        if reference.is_none() {
            digest = gen::digest(
                outcome
                    .canonical_json()
                    .expect("records serialize")
                    .as_bytes(),
            );
        }
        check_grid(
            report,
            &per_job,
            reference.get_or_insert_with(|| per_job.clone()),
        );
        failed += outcome.failures.len();
        resumed += outcome.resumed;
        job_ms.extend(
            outcome
                .completed()
                .into_iter()
                .map(|r| r.total_seconds * 1e3),
        );
        setups.extend(setup_samples(25, grid_setup).1);
        (
            wall,
            outcome
                .completed()
                .into_iter()
                .map(|r| grid::rounds_of(r) as f64)
                .sum(),
        )
    });
    check_pinned(report, "grid_lineup", seed, &digest);
    report.check(
        format!(
            "{} grid batches: {failed} failed and {resumed} resumed jobs (want 0 and 0)",
            units.len()
        ),
        failed == 0 && resumed == 0,
    );
    report.check(
        format!(
            "{} batches reproduce the first batch's canonical records",
            units.len()
        ),
        report.tally.failed == 0,
    );
    report.metric("setup_s", median(&setups), "s");
    throughput(report, &units, jobs);
    wave_metrics(report, "jobs (one grid cell, timed by the runner)", &job_ms);
    report.note(format!(
        "{} timed batches of {jobs} jobs on {} workers, {} set-ups",
        units.len(),
        input.workers,
        setups.len()
    ));
}

// -------------------------------------------------------------- serve_mixed

/// Checks one pass: trace equal to the reference line by line (each line
/// is one counted operation), and the designed shed / busy / denial counts
/// with no error. Returns a description of a count mismatch.
fn check_serve(
    report: &mut Report,
    input: &serve::Input,
    pass: &serve::Pass,
    reference: &str,
) -> Option<String> {
    let got: Vec<&str> = pass.trace.lines().collect();
    let want: Vec<&str> = reference.lines().collect();
    for i in 0..got.len().max(want.len()) {
        report
            .tally
            .record(got.get(i).is_some() && got.get(i) == want.get(i));
    }
    let c = serve::counts(&pass.responses);
    let e = input.expect;
    let ok = c.shed == e.shed
        && c.busy == e.busy
        && c.errors == 0
        && c.rounds == e.rounds
        && c.denied == e.denied
        && c.granted == e.granted
        && pass.waves_run == e.waves as u64
        && pass.journal_ok;
    (!ok).then(|| {
        format!(
            "shed {}/{}, busy {}/{}, errors {}/0, rounds {}/{}, denied {}/{}, granted {}/{}, waves {}/{}, journal synced {}",
            c.shed, e.shed, c.busy, e.busy, c.errors, c.rounds, e.rounds, c.denied, e.denied, c.granted, e.granted,
            pass.waves_run, e.waves, pass.journal_ok
        )
    })
}

/// Records one check over all passes' designed counts.
fn check_serve_counts(
    report: &mut Report,
    input: &serve::Input,
    passes: usize,
    mismatch: Option<String>,
) {
    let e = input.expect;
    let what = match &mismatch {
        None => format!(
            "{passes} serve passes: shed {}, busy {}, denied {}, granted {}, rounds {}, waves {}, no error, journal synced",
            e.shed, e.busy, e.denied, e.granted, e.rounds, e.waves
        ),
        Some(m) => format!("serve pass with wrong counts: {m}"),
    };
    report.check(what, mismatch.is_none());
}

fn serve_e2e(seed: u64, seconds: f64, scratch: &Path, report: &mut Report) {
    let serve_setup = || {
        let input = serve::setup(seed, scratch);
        drop(serve::manager(&input, Handle::noop()));
        let _ = std::fs::remove_file(&input.journal);
        input
    };
    let (input, mut setups) = setup_samples(25, serve_setup);
    // One warm-up pass (0.15 s) fills caches and fixes the reference trace.
    let warm = serve::run(&input);
    let reference = warm.trace.clone();
    let mut mismatch = check_serve(report, &input, &warm, &reference);
    check_pinned(
        report,
        "serve_mixed",
        seed,
        &gen::digest(reference.as_bytes()),
    );
    drop(warm);
    let mut waves = Vec::new();
    let units = repeat(seconds, 3, || {
        let p = serve::run(&input);
        mismatch = mismatch
            .take()
            .or(check_serve(report, &input, &p, &reference));
        waves.extend(p.waves.iter().map(|(_, ms)| *ms));
        setups.extend(setup_samples(2, serve_setup).1);
        (p.seconds, serve::counts(&p.responses).rounds as f64)
    });
    check_serve_counts(report, &input, units.len() + 1, mismatch);
    report.check(
        format!(
            "{} passes reproduce the warm-up pass's decision trace",
            units.len()
        ),
        report.tally.failed == 0,
    );
    report.metric("setup_s", median(&setups), "s");
    throughput(report, &units, serve::SESSIONS as f64);
    wave_metrics(
        report,
        "drains (closed loop: one request per session per drain)",
        &waves,
    );
    report.note(format!(
        "{} timed passes of {} waves after one warm-up, {} set-ups; jobs are sessions served to close",
        units.len(),
        input.expect.waves,
        setups.len()
    ));
}

// ------------------------------------------------------------ traced suite

/// Relative difference of two medians in percent.
fn overhead_pct(with: &[f64], without: &[f64]) -> f64 {
    (median(with) / median(without) - 1.0) * 100.0
}

/// The traced run: every layer's metrics, with the named workload measured
/// traced and untraced alternately for `seconds` (the others once each).
fn traced(
    named: &str,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    tracer: &Tracer,
    report: &mut Report,
) {
    let mut run_id = 0u64;
    let mut next_run = || {
        run_id += 1;
        run_id
    };
    let budget = |w: &str| if w == named { seconds } else { 0.0 };

    // paper_run: untraced, traced and recorded (telemetry registry) arms.
    let input = paper::setup(seed);
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut recorded = Vec::new();
    let mut counters = (0u64, 0u64);
    let mut capture = None;
    let mut paper_runs = Vec::new();
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < budget("paper_run") {
        let (record, wall) = timed(|| paper::run(&input));
        untraced.push(wall);
        let reference = paper::canonical(&record);
        let run = next_run();
        let (cap, wall) = timed(|| paper::run_traced(&input, tracer, run));
        traced_walls.push(wall);
        paper_runs.push(run);
        report
            .tally
            .record(paper::canonical(&cap.record) == reference);
        let registry = Arc::new(Registry::new());
        let handle = Handle::new(registry.clone());
        let (rec, wall) = timed(|| {
            let _scope = handle.enter();
            paper::run(&input)
        });
        recorded.push(wall);
        report.tally.record(paper::canonical(&rec) == reference);
        let snap = registry.snapshot();
        counters = (
            snap.counter("nn.train.steps").unwrap_or(0),
            snap.counter("nn.spectral.power_iterations").unwrap_or(0),
        );
        capture = Some(cap);
    }
    let capture = capture.expect("at least one traced paper run");
    report.check(
        "traced paper_run records equal the untraced run's",
        report.tally.failed == 0,
    );
    check_pinned(
        report,
        "paper_run",
        seed,
        &gen::digest(paper::canonical(&capture.record).as_bytes()),
    );
    core_metrics(
        report,
        &tracer.spans(),
        &paper_runs,
        capture.session.pool().len(),
    );
    report.metric("nn.train_steps", counters.0 as f64, "count");
    report.metric("nn.power_iterations", counters.1 as f64, "count");
    probes::layers(&capture, &input, scratch, report);
    report.metric(
        "telemetry.recording_overhead_pct",
        overhead_pct(&recorded, &untraced),
        "%",
    );
    report.note(format!(
        "paper_run: {} untraced / traced / recorded triples; phase took {:.1} s",
        untraced.len(),
        start.elapsed().as_secs_f64()
    ));
    let mut trace_overhead = if named == "paper_run" {
        Some(overhead_pct(&traced_walls, &untraced))
    } else {
        None
    };

    // grid_lineup: run_grid untraced, run_batch traced.
    let input = grid::setup(seed, scratch);
    let (mut untraced, mut traced_walls, mut grid_runs, mut steals, mut failed) =
        (Vec::new(), Vec::new(), Vec::new(), 0, 0);
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < budget("grid_lineup") {
        grid::reset(&input);
        let (outcome, wall) = timed(|| grid::run(&input));
        untraced.push(wall);
        let reference = grid::canonical_per_job(&outcome.records);
        check_grid(report, &reference, &reference);
        failed += outcome.failures.len();
        if grid_runs.is_empty() {
            let digest = gen::digest(
                outcome
                    .canonical_json()
                    .expect("records serialize")
                    .as_bytes(),
            );
            check_pinned(report, "grid_lineup", seed, &digest);
        }
        grid::reset(&input);
        let run = next_run();
        let (t, wall) = timed(|| grid::run_traced(&input, tracer, run));
        traced_walls.push(wall);
        grid_runs.push(run);
        check_grid(report, &grid::canonical_per_job(&t.records), &reference);
        failed += t.failures;
        steals += t.steals;
    }
    report.check(
        format!("grid batches: {failed} failed jobs (want 0)"),
        failed == 0,
    );
    report.check(
        "traced grid (run_batch) records equal run_grid's",
        report.tally.failed == 0,
    );
    report.note(format!(
        "grid_lineup: {} untraced / traced pairs; phase took {:.1} s",
        untraced.len(),
        start.elapsed().as_secs_f64()
    ));
    engine_metrics(report, &tracer.spans(), &grid_runs, input.workers);
    report.metric(
        "engine.steals",
        steals as f64 / grid_runs.len() as f64,
        "count",
    );
    if named == "grid_lineup" {
        trace_overhead = Some(overhead_pct(&traced_walls, &untraced));
    }

    // serve_mixed: untraced pass, traced pass with the server's telemetry.
    let input = serve::setup(seed, scratch);
    let (mut untraced, mut traced_walls, mut passes, mut mismatch) =
        (Vec::new(), Vec::new(), Vec::new(), None);
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < budget("serve_mixed") {
        let plain = serve::run(&input);
        untraced.push(plain.seconds);
        mismatch = mismatch.or(check_serve(report, &input, &plain, &plain.trace));
        if passes.is_empty() {
            check_pinned(
                report,
                "serve_mixed",
                seed,
                &gen::digest(plain.trace.as_bytes()),
            );
        }
        let mut pass = serve::run_traced(&input, tracer, next_run());
        traced_walls.push(pass.seconds);
        mismatch = mismatch.or(check_serve(report, &input, &pass, &plain.trace));
        // Keep the first pass whole; later ones only need waves and telemetry.
        pass.trace = String::new();
        if !passes.is_empty() {
            pass.responses = Vec::new();
        }
        passes.push(pass);
    }
    check_serve_counts(report, &input, 2 * passes.len(), mismatch);
    report.check(
        "traced serve passes reproduce the untraced trace",
        report.tally.failed == 0,
    );
    report.note(format!(
        "serve_mixed: {} untraced / traced pairs; phase took {:.1} s",
        untraced.len(),
        start.elapsed().as_secs_f64()
    ));
    serve_metrics(report, &tracer.spans(), &passes);
    if named == "serve_mixed" {
        trace_overhead = Some(overhead_pct(&traced_walls, &untraced));
    }

    probes::data(named == "paper_run", gen::paper_seed(seed), report);
    report.metric(
        "trace.overhead_pct",
        trace_overhead.expect("the named workload ran"),
        "%",
    );
}

/// `core.*` from the spans of the traced paper runs.
fn core_metrics(report: &mut Report, spans: &[trace::Span], runs: &[u64], pool_rows: usize) {
    let mine: Vec<trace::Span> = spans
        .iter()
        .filter(|s| runs.contains(&s.run))
        .cloned()
        .collect();
    let roots: Vec<&trace::Span> = mine.iter().filter(|s| s.name == "paper.run").collect();
    let wall: f64 = roots.iter().map(|s| s.duration() as f64).sum();
    let covered: f64 = roots
        .iter()
        .map(|r| trace::child_coverage(&mine, r) as f64)
        .sum();
    let total = |name: &str| trace::durations_ms(&mine, name).iter().sum::<f64>() * 1e6;
    let feed = trace::durations_ms(&mine, "core.feed");
    let apply = trace::durations_ms(&mine, "core.apply_labels");
    report.metric(
        "core.warm_start_ms",
        median(&trace::durations_ms(&mine, "core.warm_start")),
        "ms",
    );
    report.metric(
        "core.begin_task_ms",
        median(&trace::durations_ms(&mine, "core.begin_task")),
        "ms",
    );
    report.metric("core.feed_ms_p50", percentile(&feed, 50.0), "ms");
    report.metric("core.feed_ms_p90", percentile(&feed, 90.0), "ms");
    report.metric("core.apply_labels_ms_p50", percentile(&apply, 50.0), "ms");
    report.metric("core.apply_labels_ms_p90", percentile(&apply, 90.0), "ms");
    let shares: Vec<(&str, f64)> = [
        "core.apply_labels",
        "core.feed",
        "core.begin_task",
        "core.warm_start",
    ]
    .iter()
    .map(|&n| (n, total(n) / wall))
    .collect();
    report.metric("core.feed_share", shares[1].1, "frac");
    report.metric("core.train_share", shares[0].1, "frac");
    let coverage = covered / wall;
    report.metric("core.span_coverage", coverage, "frac");
    report.metric(
        "core.rounds",
        feed.len() as f64 / roots.len() as f64,
        "count",
    );
    report.metric("core.retrain_pool_rows_max", pool_rows as f64, "count");
    report.check(
        format!("paper_run span coverage {coverage:.4} >= 0.9"),
        coverage >= 0.9,
    );
    let largest = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|s| s.0);
    report.note(format!(
        "expectation: core.apply_labels (train) is the largest share of paper_run: {} (shares {shares:?}; feed n={}, apply n={})",
        if largest == Some("core.apply_labels") { "holds" } else { "DOES NOT HOLD" },
        feed.len(),
        apply.len()
    ));
}

/// `engine.*` from the spans of the traced grid batches.
fn engine_metrics(report: &mut Report, spans: &[trace::Span], runs: &[u64], workers: usize) {
    let (mut job_ms, mut wait_ms, mut busy, mut over_ideal) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &run in runs {
        let Some(batch) = spans
            .iter()
            .find(|s| s.run == run && s.name == "engine.batch")
        else {
            continue;
        };
        let jobs: Vec<&trace::Span> = spans
            .iter()
            .filter(|s| s.parent == Some(batch.id))
            .collect();
        let work: f64 = jobs.iter().map(|j| j.duration() as f64).sum();
        let longest = jobs.iter().map(|j| j.duration() as f64).fold(0.0, f64::max);
        let makespan = batch.duration() as f64;
        job_ms.extend(jobs.iter().map(|j| j.duration() as f64 / 1e6));
        wait_ms.extend(jobs.iter().map(|j| (j.start - batch.start) as f64 / 1e6));
        busy.push(work / (workers as f64 * makespan));
        over_ideal.push(makespan / (work / workers as f64).max(longest));
    }
    report.metric("engine.job_ms_p50", percentile(&job_ms, 50.0), "ms");
    report.metric("engine.job_ms_p90", percentile(&job_ms, 90.0), "ms");
    report.metric("engine.queue_wait_ms_p90", percentile(&wait_ms, 90.0), "ms");
    report.metric("engine.worker_busy_frac", median(&busy), "frac");
    report.metric("engine.makespan_over_ideal", median(&over_ideal), "ratio");
    report.note(format!(
        "engine: {} jobs over {} traced batches on {workers} workers",
        job_ms.len(),
        runs.len()
    ));
}

/// `serve.*` from the traced passes and the server's own telemetry.
fn serve_metrics(report: &mut Report, spans: &[trace::Span], passes: &[serve::Pass]) {
    use serve::WaveKind::*;
    for (kind, name) in [
        (Open, "serve.wave_ms_open_p50"),
        (Task, "serve.wave_ms_task_p50"),
        (Round, "serve.wave_ms_round_p50"),
        (Snapshot, "serve.wave_ms_snapshot_p50"),
        (Restore, "serve.wave_ms_restore_p50"),
    ] {
        let ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.waves
                    .iter()
                    .filter(|(k, _)| *k == kind)
                    .map(|(_, ms)| *ms)
            })
            .collect();
        report.metric(name, median(&ms), "ms");
    }
    let submit_us: Vec<f64> = trace::durations_ms(spans, "serve.submit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    report.metric("serve.submit_us_p50", percentile(&submit_us, 50.0), "us");
    let c = serve::counts(&passes[0].responses);
    report.metric(
        "serve.grant_frac",
        c.granted as f64 / (c.granted + c.denied) as f64,
        "frac",
    );
    report.metric("serve.shed", c.shed as f64, "count");
    report.metric("serve.busy", c.busy as f64, "count");
    let sum_ms = |key: &str| -> f64 {
        let total: u64 = passes
            .iter()
            .filter_map(|p| {
                p.telemetry
                    .as_ref()
                    .and_then(|t| t.histogram(key))
                    .map(|h| h.sum)
            })
            .sum();
        total as f64 / 1e6 / passes.len() as f64
    };
    let (feed, train) = (sum_ms("serve.feed_ns"), sum_ms("core.runner.train_ns"));
    report.metric("serve.feed_ms_total", feed, "ms");
    report.metric("serve.train_ms_total", train, "ms");
    report.note(format!(
        "expectation: serve.feed_ns total exceeds core.runner.train_ns total on serve_mixed: {} ({feed:.1} vs {train:.1} ms per pass)",
        if feed > train { "holds" } else { "DOES NOT HOLD" }
    ));
}

// --------------------------------------------------------------------- main

fn run_workload(
    name: &str,
    args: &Args,
    scratch: &Path,
    results: &Path,
    fp: &host::Fingerprint,
) -> Report {
    let mut report = Report::default();
    if args.trace {
        let tracer = Tracer::new();
        traced(name, args.seed, args.seconds, scratch, &tracer, &mut report);
        let spans = results.join(format!("{name}-seed{}-spans.tsv", args.seed));
        match tracer.write_tsv(&spans) {
            Ok(()) => report.note(format!("spans written to {}", spans.display())),
            Err(e) => report.note(format!("could not write spans to {}: {e}", spans.display())),
        }
    } else {
        match name {
            "paper_run" => paper_e2e(args.seed, args.seconds, &mut report),
            "grid_lineup" => grid_e2e(args.seed, args.seconds, scratch, &mut report),
            _ => serve_e2e(args.seed, args.seconds, scratch, &mut report),
        }
        report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    }
    print_human(name, args, fp, &report);
    let file = results.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"workload\": {name:?}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {},\n \"failed_frac\": {},\n \"checks\": [{}],\n \"result\": {}}}\n",
        args.seed,
        args.seconds,
        args.trace,
        fp.to_json(),
        report::json_number(report.tally.failed_frac()),
        report.checks.iter().map(|(w, ok)| format!("{{\"check\": {w:?}, \"ok\": {ok}}}")).collect::<Vec<_>>().join(", "),
        report.result_json()
    );
    if let Err(e) = std::fs::write(&file, body) {
        eprintln!("could not write {}: {e}", file.display());
    }
    report
}

fn print_human(name: &str, args: &Args, fp: &host::Fingerprint, report: &Report) {
    eprintln!(
        "== {name}  seed {}  {} s  {}",
        args.seed,
        args.seconds,
        if args.trace {
            "traced (per-layer metrics)"
        } else {
            "untraced (end-to-end metrics)"
        }
    );
    eprintln!("   host {}", fp.to_json());
    for m in &report.metrics {
        eprintln!("   {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "   {:<36} {:>16.6} (failed {} of {} attempted)",
        "failed_frac",
        report.tally.failed_frac(),
        report.tally.failed,
        report.tally.attempted
    );
    for (what, ok) in &report.checks {
        eprintln!("   [{}] {what}", if *ok { "ok" } else { "FAIL" });
    }
    for n in &report.notes {
        eprintln!("   - {n}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let base = work_dir();
    let scratch = base.join(format!("scratch-{}", std::process::id()));
    let results = args.out.clone().unwrap_or_else(|| base.join("results"));
    for dir in [&scratch, &results] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let fp = host::Fingerprint::probe();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut out = Report::default();
    for name in &names {
        let r = run_workload(name, &args, &scratch, &results, &fp);
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        for m in r.metrics {
            out.metric(&format!("{prefix}{}", m.name), m.value, m.unit);
        }
        out.checks.extend(r.checks);
        out.tally.add(r.tally.attempted, r.tally.failed);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
