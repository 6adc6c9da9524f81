//! `paper_run`: one full-scale RCMNIST FACTION run with the paper's
//! configuration, one run at a time on one thread.

use std::time::Instant;

use faction_core::{
    run_experiment, ExperimentConfig, OnlineSession, RunRecord, Strategy, TaskRecord,
};
use faction_data::datasets::Dataset;
use faction_data::{Oracle, Scale, TaskStream};
use faction_engine::build_strategy;
use faction_nn::MlpConfig;

use crate::gen;
use crate::trace::Tracer;

/// Everything a run consumes, generated in set-up.
pub struct Input {
    /// The RCMNIST stream at paper scale.
    pub stream: TaskStream,
    /// The standard architecture for the stream.
    pub arch: MlpConfig,
    /// `ExperimentConfig::paper()`.
    pub cfg: ExperimentConfig,
    /// Run seed derived from the workload seed.
    pub seed: u64,
}

/// Generates the stream and architecture for workload seed `seed`.
pub fn setup(seed: u64) -> Input {
    let run_seed = gen::paper_seed(seed);
    let stream = Dataset::Rcmnist.stream(run_seed, Scale::Full);
    let arch = faction_nn::presets::standard(stream.input_dim, stream.num_classes, run_seed);
    Input {
        stream,
        arch,
        cfg: ExperimentConfig::paper(),
        seed: run_seed,
    }
}

fn strategy(cfg: &ExperimentConfig) -> Box<dyn Strategy> {
    build_strategy("faction", cfg.loss, 1.0, false).expect("faction is a registered strategy")
}

/// Canonical JSON of a record: timings and host provenance cleared.
pub fn canonical(record: &RunRecord) -> String {
    serde_json::to_string(&record.canonicalized()).expect("run records serialize")
}

/// Acquisition rounds a record performed: `⌈queries / A⌉` per task.
pub fn rounds(record: &RunRecord, cfg: &ExperimentConfig) -> usize {
    let a = cfg.acquisition_batch.max(1);
    record.records.iter().map(|t| t.queries.div_ceil(a)).sum()
}

/// One untraced run through `run_experiment`.
pub fn run(input: &Input) -> RunRecord {
    let mut s = strategy(&input.cfg);
    run_experiment(
        &input.stream,
        s.as_mut(),
        &input.arch,
        &input.cfg,
        input.seed,
    )
}

/// State captured at the end of a traced run, for the layer probes.
pub struct Capture {
    /// The session after the last task (pool at full size).
    pub session: OnlineSession,
    /// The strategy that drove it.
    pub strategy: Box<dyn Strategy>,
    /// The run's record.
    pub record: RunRecord,
}

/// One traced run: drives the `OnlineSession` loop exactly as
/// `run_experiment` does, with a span around every call into the core
/// layer, so its canonical record must equal the untraced run's.
pub fn run_traced(input: &Input, tracer: &Tracer, run: u64) -> Capture {
    let root = tracer.span("paper.run", None, run);
    let parent = Some(root.id());
    let run_start = Instant::now();
    let (stream, cfg) = (&input.stream, &input.cfg);
    let mut strategy = strategy(cfg);
    let mut session = {
        let _s = tracer.span("core.new", parent, run);
        OnlineSession::new(
            &input.arch,
            cfg,
            input.seed,
            stream.num_classes,
            strategy.training_loss(),
        )
    };
    if let Some(first) = stream.tasks.first() {
        let _s = tracer.span("core.warm_start", parent, run);
        session.warm_start(first);
    }
    let mut records = Vec::with_capacity(stream.len());
    for task in &stream.tasks {
        let task_start = Instant::now();
        let eval = {
            let _s = tracer.span("core.begin_task", parent, run);
            session.begin_task(task)
        };
        let mut oracle = Oracle::new(task, cfg.budget);
        while oracle.remaining() > 0 && session.has_candidates() {
            let decisions = {
                let _s = tracer.span("core.feed", parent, run);
                session.feed(task, strategy.as_mut())
            };
            let labels: Vec<Option<usize>> = {
                let _s = tracer.span("data.oracle", parent, run);
                decisions.picked.iter().map(|&g| oracle.query(g)).collect()
            };
            let _s = tracer.span("core.apply_labels", parent, run);
            session.apply_labels(task, &labels);
        }
        records.push(TaskRecord {
            task_id: task.id,
            env_name: task.env_name.clone(),
            accuracy: eval.accuracy,
            ddp: eval.ddp,
            eod: eval.eod,
            mi: eval.mi,
            calibration_gap: eval.calibration_gap,
            queries: oracle.queries_made(),
            seconds: task_start.elapsed().as_secs_f64(),
            selection_seconds: session.selection_seconds(),
            training_seconds: session.training_seconds(),
        });
    }
    let record = RunRecord {
        strategy: strategy.name(),
        dataset: stream.name.clone(),
        seed: input.seed,
        records,
        total_seconds: run_start.elapsed().as_secs_f64(),
        kernel_backend: faction_linalg::dispatch::active_backend()
            .as_str()
            .to_string(),
    };
    Capture {
        session,
        strategy,
        record,
    }
}
