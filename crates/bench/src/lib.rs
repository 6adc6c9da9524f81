//! Shared plumbing for the benchmark harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! FACTION paper (see `DESIGN.md` §4 for the index). They share:
//!
//! * [`HarnessOptions`] — a minimal CLI (`--quick`, `--seeds N`,
//!   `--dataset NAME`, `--out DIR`, `--jobs N`, `--pool-policy SPEC`);
//! * [`run_lineup`] — "run these strategies on this stream across seeds and
//!   aggregate" — the inner loop of every figure, fanned out over the
//!   `faction-engine` thread pool when `--jobs > 1` (results are identical
//!   for every worker count — see `DESIGN.md` §8);
//! * [`write_output`] — persist the human-readable table and the
//!   machine-readable JSON under `results/`.
//!
//! The [`perf`] module holds the schema, gate table and gate evaluator of
//! the `perf_report` smoke harness.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod perf;

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use faction_core::report::AggregatedRun;
use faction_core::{run_experiment, ExperimentConfig, PoolPolicy, Strategy};
use faction_data::datasets::Dataset;
use faction_data::{Scale, TaskStream};
use faction_nn::MlpConfig;

/// A factory producing a fresh strategy instance per seed (strategies are
/// stateful across a run, so each seed gets its own). `Sync` so the engine
/// pool can invoke factories from worker threads.
pub type StrategyFactory = Box<dyn Fn() -> Box<dyn Strategy> + Sync>;

/// Parsed harness command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Reduced scale: fewer seeds, smaller tasks, smaller budgets.
    pub quick: bool,
    /// Number of repetitions (paper: 5).
    pub seeds: u64,
    /// Restrict to one dataset (all five when `None`).
    pub dataset: Option<Dataset>,
    /// Output directory for `.txt` / `.json` results.
    pub out_dir: PathBuf,
    /// Engine worker threads for the run fan-out (`--jobs N`, `0` = auto;
    /// default 1 keeps historical single-threaded behavior). Results are
    /// byte-identical for every value.
    pub jobs: usize,
    /// Labeled-pool retention policy (`--pool-policy SPEC`, default
    /// `unbounded` — the paper protocol, leaving every published figure
    /// unchanged).
    pub pool_policy: PoolPolicy,
}

impl HarnessOptions {
    /// Parses `std::env::args()`. Unknown flags abort with a usage message.
    pub fn from_args() -> HarnessOptions {
        HarnessOptions::parse(std::env::args().skip(1))
    }

    /// Parses the arguments after the program name. `--seeds` defaults to
    /// 5, or 2 under `--quick`; an explicit `--seeds N` wins in either
    /// order. Unknown flags abort with a usage message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> HarnessOptions {
        let mut options = HarnessOptions {
            quick: false,
            seeds: 5,
            dataset: None,
            out_dir: PathBuf::from("results"),
            jobs: 1,
            pool_policy: PoolPolicy::Unbounded,
        };
        let mut seeds: Option<u64> = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--seeds" => {
                    let v = args.next().expect("--seeds needs a value");
                    seeds = Some(v.parse().expect("--seeds must be an integer"));
                }
                "--dataset" => {
                    let v = args.next().expect("--dataset needs a value");
                    options.dataset = Some(
                        Dataset::from_name(&v)
                            .unwrap_or_else(|| panic!("unknown dataset '{v}'")),
                    );
                }
                "--out" => {
                    let v = args.next().expect("--out needs a value");
                    options.out_dir = PathBuf::from(v);
                }
                "--jobs" => {
                    let v = args.next().expect("--jobs needs a value");
                    let requested: usize = v.parse().expect("--jobs must be an integer");
                    options.jobs = faction_engine::resolve_workers(Some(requested));
                }
                "--pool-policy" => {
                    let v = args.next().expect("--pool-policy needs a value");
                    options.pool_policy = PoolPolicy::parse(&v)
                        .unwrap_or_else(|e| panic!("invalid --pool-policy: {e}"));
                }
                other if !other.starts_with("--") => {
                    // Positional argument (e.g. fig5's `fair` / `ablation`
                    // selector) — left for the binary to re-read.
                }
                other => panic!(
                    "unknown flag '{other}' \
                     (try --quick/--seeds/--dataset/--out/--jobs/--pool-policy)"
                ),
            }
        }
        options.seeds = seeds.unwrap_or(if options.quick { 2 } else { 5 });
        options
    }

    /// The generation scale implied by `--quick`.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The protocol configuration implied by `--quick` and `--pool-policy`.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut cfg = if self.quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::paper()
        };
        cfg.pool_policy = self.pool_policy;
        cfg
    }

    /// Datasets selected by the CLI (one or all five).
    pub fn datasets(&self) -> Vec<Dataset> {
        match self.dataset {
            Some(d) => vec![d],
            None => Dataset::ALL.to_vec(),
        }
    }
}

/// Runs each strategy factory over the stream for `seeds` repetitions and
/// aggregates across seeds. The architecture is rebuilt per seed via
/// `arch_for_seed` so weight initialization varies with the repetition, as
/// in the paper's five-run protocol.
///
/// With `jobs > 1` the (factory × seed) grid is fanned out over the
/// `faction-engine` work-stealing pool. Every run is a pure function of
/// `(stream, strategy, arch, seed)`, and results land in a slot table
/// indexed by grid position, so the aggregated output is identical to the
/// sequential nested loop for every worker count.
pub fn run_lineup(
    stream_for_seed: &(dyn Fn(u64) -> TaskStream + Sync),
    factories: &[StrategyFactory],
    arch_for_seed: &(dyn Fn(&TaskStream, u64) -> MlpConfig + Sync),
    cfg: &ExperimentConfig,
    seeds: u64,
    jobs: usize,
) -> Vec<AggregatedRun> {
    let grid: Vec<(usize, u64)> =
        (0..factories.len()).flat_map(|f| (0..seeds).map(move |s| (f, s))).collect();
    let slots: Vec<Mutex<Option<faction_core::RunRecord>>> =
        grid.iter().map(|_| Mutex::new(None)).collect();

    faction_engine::scoped_for_each(jobs, &grid, |slot, &(factory_idx, seed)| {
        let stream = stream_for_seed(seed);
        let arch = arch_for_seed(&stream, seed);
        let mut strategy = factories[factory_idx]();
        let record = run_experiment(&stream, strategy.as_mut(), &arch, cfg, seed);
        *slots[slot].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(record);
    });

    let mut records: Vec<faction_core::RunRecord> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every grid slot is filled by the pool")
        })
        .collect();
    factories
        .iter()
        .map(|_| {
            let rest = records.split_off(seeds as usize);
            let runs = std::mem::replace(&mut records, rest);
            AggregatedRun::from_runs(&runs)
        })
        .collect()
}

/// The full Fig. 2 method lineup as strategy factories, with cost knobs
/// scaled down under `--quick` (FAL's `l`, Decoupled's epochs).
pub fn paper_factories(
    loss: faction_fairness::TotalLossConfig,
    quick: bool,
) -> Vec<StrategyFactory> {
    use faction_core::strategies::{
        ddu::Ddu,
        decoupled::{Decoupled, DecoupledParams},
        entropy::EntropyAl,
        faction::{Faction, FactionParams},
        fal::{Fal, FalParams},
        falcur::FalCur,
        qufur::QuFur,
        random::Random,
    };
    let fal_params = if quick {
        FalParams { l: 16, retrain_subsample: 48, probe_subsample: 48, ..Default::default() }
    } else {
        FalParams::default()
    };
    let decoupled_params =
        if quick { DecoupledParams { epochs: 1, ..Default::default() } } else { DecoupledParams::default() };
    vec![
        Box::new(move || Box::new(Faction::new(FactionParams { loss, ..Default::default() }))),
        Box::new(move || Box::new(Fal::new(fal_params))),
        Box::new(|| Box::new(FalCur::default())),
        Box::new(move || Box::new(Decoupled::new(decoupled_params))),
        Box::new(|| Box::new(QuFur::default())),
        Box::new(|| Box::new(Ddu::default())),
        Box::new(|| Box::new(EntropyAl)),
        Box::new(|| Box::new(Random)),
    ]
}

/// The standard architecture used by all methods in a comparison
/// (Sec. V-A3): the spectrally normalized preset sized to the stream.
pub fn standard_arch(stream: &TaskStream, seed: u64) -> MlpConfig {
    faction_nn::presets::standard(stream.input_dim, stream.num_classes, seed)
}

/// The Fig. 6 wide architecture (the WRN-50 stand-in; see `DESIGN.md` §3).
pub fn wide_arch(stream: &TaskStream, seed: u64) -> MlpConfig {
    faction_nn::presets::wide(stream.input_dim, stream.num_classes, seed)
}

/// Writes `text` to `<out>/<name>.txt`, `json` to `<out>/<name>.json`, and
/// echoes the text to stdout.
pub fn write_output(options: &HarnessOptions, name: &str, text: &str, json: &impl serde::Serialize) {
    fs::create_dir_all(&options.out_dir).expect("create results directory");
    let txt_path = options.out_dir.join(format!("{name}.txt"));
    fs::write(&txt_path, text).expect("write text results");
    let json_path = options.out_dir.join(format!("{name}.json"));
    fs::write(&json_path, serde_json::to_string_pretty(json).expect("serialize results"))
        .expect("write json results");
    println!("{text}");
    eprintln!("wrote {} and {}", txt_path.display(), json_path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use faction_core::strategies::{EntropyAl, Random};

    fn parse(args: &[&str]) -> HarnessOptions {
        HarnessOptions::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn explicit_seeds_win_over_quick_in_either_order() {
        assert_eq!(parse(&["--seeds", "5", "--quick"]).seeds, 5);
        assert_eq!(parse(&["--quick", "--seeds", "5"]).seeds, 5);
        assert_eq!(parse(&["--quick"]).seeds, 2);
        assert_eq!(parse(&[]).seeds, 5);
        let options = parse(&["fair", "--seeds", "1", "--quick"]);
        assert_eq!((options.seeds, options.quick), (1, true));
    }

    #[test]
    fn run_lineup_aggregates_each_factory() {
        let factories: Vec<StrategyFactory> = vec![
            Box::new(|| Box::new(Random)),
            Box::new(|| Box::new(EntropyAl)),
        ];
        let cfg = ExperimentConfig {
            budget: 10,
            acquisition_batch: 5,
            warm_start: 15,
            epochs_per_iteration: 1,
            ..ExperimentConfig::quick()
        };
        let stream_for_seed = |seed: u64| {
            let mut s = faction_data::datasets::rcmnist(seed, Scale::Quick);
            s.tasks.truncate(2);
            for t in &mut s.tasks {
                t.samples.truncate(60);
            }
            s
        };
        let arch = |stream: &TaskStream, seed: u64| {
            faction_nn::presets::tiny(stream.input_dim, stream.num_classes, seed)
        };
        let aggregated = run_lineup(&stream_for_seed, &factories, &arch, &cfg, 2, 2);
        assert_eq!(aggregated.len(), 2);
        assert_eq!(aggregated[0].strategy, "Random");
        assert_eq!(aggregated[1].strategy, "Entropy-AL");
        assert_eq!(aggregated[0].seeds, 2);
        assert_eq!(aggregated[0].tasks.len(), 2);
    }
}
