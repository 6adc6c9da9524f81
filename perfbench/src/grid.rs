//! `grid_lineup`: `Engine::run_grid` over 5 datasets × 9 strategies × 1
//! seed at quick scale on every core, checkpointing each job.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use faction_core::checkpoint::RunCheckpoint;
use faction_core::{run_experiment, RunRecord};
use faction_engine::{build_strategy, Engine, EngineConfig, ExperimentJob, GridOutcome};
use faction_telemetry::{Handle, Registry};

use crate::gen;
use crate::host;
use crate::trace::Tracer;

/// The job list and where its checkpoints go.
pub struct Input {
    /// The generated job list.
    pub jobs: Vec<ExperimentJob>,
    /// Checkpoint directory, emptied before every batch.
    pub checkpoint_dir: PathBuf,
    /// Engine workers (`nproc`).
    pub workers: usize,
}

/// Generates the job list for workload seed `seed`.
pub fn setup(seed: u64, scratch: &Path) -> Input {
    Input {
        jobs: gen::grid_jobs(seed),
        checkpoint_dir: scratch.join("grid-checkpoints"),
        workers: host::nproc(),
    }
}

/// Empties the checkpoint directory, so no job resumes.
pub fn reset(input: &Input) {
    let _ = std::fs::remove_dir_all(&input.checkpoint_dir);
    std::fs::create_dir_all(&input.checkpoint_dir).expect("checkpoint directory can be created");
}

fn engine(input: &Input, recorder: Handle) -> Engine {
    Engine::new(EngineConfig {
        workers: input.workers,
        checkpoint_dir: Some(input.checkpoint_dir.clone()),
        recorder,
        ..EngineConfig::default()
    })
}

/// One untraced batch through `run_grid`.
pub fn run(input: &Input) -> GridOutcome {
    engine(input, Handle::noop()).run_grid(&input.jobs)
}

/// Canonical JSON of each job's record (`None` for failed jobs).
pub fn canonical_per_job(records: &[Option<RunRecord>]) -> Vec<Option<String>> {
    records
        .iter()
        .map(|r| r.as_ref().map(crate::paper::canonical))
        .collect()
}

/// Result of one traced batch.
pub struct Traced {
    /// Per-job records in submission order.
    pub records: Vec<Option<RunRecord>>,
    /// Jobs that failed.
    pub failures: usize,
    /// Work-stealing events from the engine's telemetry.
    pub steals: u64,
}

/// One traced batch: `Engine::run_batch` with a closure that does what
/// `run_grid` does per job (stream, run, checkpoint) with a span around
/// each layer call, so its records must equal `run_grid`'s.
pub fn run_traced(input: &Input, tracer: &Tracer, run: u64) -> Traced {
    let registry = Arc::new(Registry::new());
    let engine = engine(input, Handle::new(registry.clone()));
    let batch = tracer.span("engine.batch", None, run);
    let parent = Some(batch.id());
    let outcome = engine.run_batch(&input.jobs, |job: &ExperimentJob| {
        let job_span = tracer.span("engine.job", parent, run);
        let within = Some(job_span.id());
        let mut strategy = build_strategy(&job.strategy, job.cfg.loss, job.lambda, job.quick_knobs)
            .ok_or_else(|| format!("unknown strategy '{}'", job.strategy))?;
        let stream = {
            let _s = tracer.span("data.stream", within, run);
            job.dataset.stream(job.seed, job.scale)
        };
        let arch = faction_nn::presets::standard(stream.input_dim, stream.num_classes, job.seed);
        let record = {
            let _s = tracer.span("core.run", within, run);
            run_experiment(&stream, strategy.as_mut(), &arch, &job.cfg, job.seed)
        };
        let _s = tracer.span("wire.checkpoint_save", within, run);
        RunCheckpoint::capture(&record)
            .save(&input.checkpoint_dir.join(format!("{}.run.wire", job.key())))
            .map_err(|e| format!("run succeeded but checkpoint save failed: {e}"))?;
        Ok(record)
    });
    drop(batch);
    let steals = registry
        .snapshot()
        .counter("engine.pool.steals")
        .unwrap_or(0);
    Traced {
        records: outcome.results,
        failures: outcome.failures.len(),
        steals,
    }
}

/// Acquisition rounds a grid job performed.
pub fn rounds_of(record: &RunRecord) -> usize {
    crate::paper::rounds(record, &faction_core::ExperimentConfig::quick())
}
