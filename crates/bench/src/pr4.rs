//! Shared plumbing for `BENCH_PR4.json`, the PR-4 telemetry report.
//!
//! Two harnesses contribute sections to one file: `perf_report` fills the
//! recording-overhead and phase-coverage sections, `engine_scaling` fills
//! the scheduler-telemetry section. The file is therefore maintained
//! read-modify-write — each harness loads whatever exists, replaces only
//! its own sections, and writes the whole report back — so the two
//! binaries can run in either order (a zeroed/default section just means
//! its harness has not run yet).

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// Recording overhead on the batched GDA scoring hot path: the same
/// seeded workload timed with no recorder in scope vs. a live
/// [`faction_telemetry::Registry`] scope installed.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct OverheadSection {
    /// Whether this was a `--quick` smoke run (fewer timing samples).
    #[serde(default)]
    pub quick: bool,
    /// Median ns per batched scoring pass with the no-op recorder.
    #[serde(default)]
    pub noop_median_ns: u64,
    /// Median ns per pass with a live registry scope installed.
    #[serde(default)]
    pub recording_median_ns: u64,
    /// `(recording - noop) / noop`, in percent (negative = noise).
    #[serde(default)]
    pub overhead_pct: f64,
    /// The PR-4 acceptance gate: recording overhead below 3%.
    #[serde(default)]
    pub gate: String,
}

/// One runner phase histogram, summarized.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct PhaseEntry {
    /// Metric key (e.g. `core.runner.train_ns`).
    #[serde(default)]
    pub name: String,
    /// Total nanoseconds across the run.
    #[serde(default)]
    pub sum_ns: u64,
    /// Observations recorded.
    #[serde(default)]
    pub count: u64,
}

/// How much of the runner's wall clock the phase spans account for: an
/// instrumented single-job run where the eval/selection/train histograms
/// should sum to nearly the runner's own end-to-end time.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct PhaseCoverageSection {
    /// The runner's end-to-end wall time (`RunRecord::total_seconds`), ns.
    #[serde(default)]
    pub end_to_end_ns: u64,
    /// Sum of the top-level phase histograms below.
    #[serde(default)]
    pub phase_sum_ns: u64,
    /// `phase_sum_ns / end_to_end_ns` (1.0 = fully accounted).
    #[serde(default)]
    pub coverage: f64,
    /// The top-level, non-overlapping runner phases.
    #[serde(default)]
    pub phases: Vec<PhaseEntry>,
    /// The PR-4 acceptance gate: phases cover >=90% of the wall clock.
    #[serde(default)]
    pub gate: String,
}

/// Scheduler telemetry from an instrumented multi-worker grid run.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct SchedulerSection {
    /// Worker threads in the instrumented run.
    #[serde(default)]
    pub workers: usize,
    /// Jobs in the grid.
    #[serde(default)]
    pub grid_jobs: usize,
    /// `engine.pool.jobs_completed`.
    #[serde(default)]
    pub jobs_completed: u64,
    /// `engine.pool.steals` — cross-deque work steals.
    #[serde(default)]
    pub steals: u64,
    /// `engine.pool.park_waits` — idle waits on the park condvar.
    #[serde(default)]
    pub park_waits: u64,
    /// `engine.pool.queue_high_water` gauge high-water mark.
    #[serde(default)]
    pub queue_high_water: u64,
    /// `engine.pool.job_run_ns` observation count (total job attempts).
    #[serde(default)]
    pub job_run_ns_count: u64,
    /// `engine.pool.job_run_ns` total nanoseconds across all workers.
    #[serde(default)]
    pub job_run_ns_sum: u64,
}

/// The full `BENCH_PR4.json` document.
#[derive(Debug, Serialize, Deserialize)]
pub struct Bench4Report {
    /// Report schema / PR tag.
    #[serde(default)]
    pub report: String,
    /// Recording overhead on the scoring hot path (`perf_report`).
    #[serde(default)]
    pub telemetry_overhead: OverheadSection,
    /// Runner phase-span coverage (`perf_report`).
    #[serde(default)]
    pub phase_coverage: PhaseCoverageSection,
    /// Scheduler counters from the scaling grid (`engine_scaling`).
    #[serde(default)]
    pub engine_scheduler: SchedulerSection,
}

impl Default for Bench4Report {
    fn default() -> Self {
        Bench4Report {
            report: "BENCH_PR4".into(),
            telemetry_overhead: OverheadSection::default(),
            phase_coverage: PhaseCoverageSection::default(),
            engine_scheduler: SchedulerSection::default(),
        }
    }
}

/// The repo root (this crate sits at `<root>/crates/bench`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits at <root>/crates/bench")
        .to_path_buf()
}

/// The directory the bench harnesses write their `BENCH_PR*.json` reports
/// to (and `bench_trend` reads them from): the value after `flag` on the
/// command line, created if missing, or the repo root when the flag is
/// absent. `scripts/check.sh` points its smoke runs under `target/` so they
/// never rewrite the committed reports.
pub fn report_dir(flag: &str) -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return repo_root();
    };
    let dir = PathBuf::from(args.get(pos + 1).unwrap_or_else(|| panic!("{flag} needs a value")));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("create {flag} {}: {e}", dir.display()));
    dir
}

/// Loads the existing `BENCH_PR4.json`, or a default report when the file
/// is missing or from an older schema.
pub fn load(root: &Path) -> Bench4Report {
    std::fs::read_to_string(root.join("BENCH_PR4.json"))
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default()
}

/// Writes the report back to `<root>/BENCH_PR4.json` and returns the path.
pub fn save(root: &Path, report: &Bench4Report) -> PathBuf {
    let out = root.join("BENCH_PR4.json");
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_PR4.json");
    out
}
