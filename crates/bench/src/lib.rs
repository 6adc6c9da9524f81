//! Shared plumbing for the benchmark harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! FACTION paper (see `DESIGN.md` §4 for the index) as a thin writer: parse
//! [`HarnessOptions`], call the [`figures`] function that returns the
//! figure's typed rows, render them, and [`write_output`] both.
//! `run_lineup` is the inner loop of every figure: labeled strategies ×
//! seeds on one stream, fanned out over the `faction-engine` thread pool
//! when `--jobs > 1` (results are identical for every worker count — see
//! `DESIGN.md` §8).
//!
//! The [`perf`] module holds the schema, gate table and gate evaluator of
//! the `perf_report` smoke harness.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod figures;
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
pub(crate) type StrategyFactory = Box<dyn Fn() -> Box<dyn Strategy> + Sync>;

/// A labeled strategy factory; the label becomes the aggregated row's
/// `strategy` name.
pub(crate) type Method = (&'static str, StrategyFactory);

/// A fixed lineup: `(label, registry name)` pairs, in presentation order.
pub type Lineup = [(&'static str, &'static str)];

/// A `faction_nn::presets` constructor: `(input_dim, num_classes, seed)`.
pub(crate) type Preset = fn(usize, usize, u64) -> MlpConfig;

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
    /// The flags every harness accepts.
    pub const USAGE: &'static str =
        "[--quick] [--seeds N] [--dataset NAME] [--out DIR] [--jobs N] [--pool-policy SPEC]";

    /// Parses `std::env::args()`; see [`HarnessOptions::parse`]. A usage
    /// error is printed with the usage line and exits with status 2.
    pub fn from_args(extra: &[&'static str]) -> (HarnessOptions, Vec<&'static str>) {
        let mut args = std::env::args();
        let path = args.next().unwrap_or_default();
        HarnessOptions::parse(args, extra).unwrap_or_else(|e| {
            let program = path.rsplit('/').next().unwrap_or_default();
            let words =
                if extra.is_empty() { String::new() } else { format!("[{}] ", extra.join("|")) };
            eprintln!("{program}: {e}\nusage: {program} {words}{}", Self::USAGE);
            std::process::exit(2);
        })
    }

    /// Parses the arguments after the program name. `extra` lists the
    /// binary's own words (fig5's `fair` / `ablation`, fig4's
    /// `--extended`); those present are returned in command-line order.
    /// `--seeds` defaults to 5, or 2 under `--quick`; an explicit
    /// `--seeds N` wins in either order. Any other argument, a missing or
    /// malformed value, or an unknown dataset is an error.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        extra: &[&'static str],
    ) -> Result<(HarnessOptions, Vec<&'static str>), String> {
        let mut options = HarnessOptions {
            quick: false,
            seeds: 5,
            dataset: None,
            out_dir: PathBuf::from("results"),
            jobs: 1,
            pool_policy: PoolPolicy::Unbounded,
        };
        let mut seeds: Option<u64> = None;
        let mut found = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--seeds" => {
                    let v = value()?;
                    seeds = Some(v.parse().ok().filter(|&n: &u64| n > 0).ok_or_else(|| {
                        format!("--seeds must be a positive integer, got '{v}'")
                    })?);
                }
                "--dataset" => {
                    let v = value()?;
                    options.dataset = Some(
                        Dataset::from_name(&v).ok_or_else(|| format!("unknown dataset '{v}'"))?,
                    );
                }
                "--out" => options.out_dir = PathBuf::from(value()?),
                "--jobs" => {
                    let v = value()?;
                    let requested =
                        v.parse().map_err(|_| format!("--jobs must be an integer, got '{v}'"))?;
                    options.jobs = faction_engine::resolve_workers(Some(requested));
                }
                "--pool-policy" => {
                    options.pool_policy = PoolPolicy::parse(&value()?)
                        .map_err(|e| format!("invalid --pool-policy: {e}"))?;
                }
                other => match extra.iter().find(|&&word| word == other) {
                    Some(&word) => found.push(word),
                    None => return Err(format!("unexpected argument '{other}'")),
                },
            }
        }
        options.seeds = seeds.unwrap_or(if options.quick { 2 } else { 5 });
        Ok((options, found))
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

/// Runs each method over the stream for `seeds` repetitions and aggregates
/// across seeds, one row per method named by its label. `arch` is a
/// `faction_nn::presets` constructor, rebuilt per seed and sized to the
/// stream, so weight initialization varies with the repetition, as in the
/// paper's five-run protocol.
///
/// With `jobs > 1` the (method × seed) grid is fanned out over the
/// `faction-engine` work-stealing pool. Every run is a pure function of
/// `(stream, strategy, arch, seed)`, and results land in a slot table
/// indexed by grid position, so the aggregated output is identical to the
/// sequential nested loop for every worker count.
pub(crate) fn run_lineup(
    stream_for_seed: &(dyn Fn(u64) -> TaskStream + Sync),
    methods: &[Method],
    arch: Preset,
    cfg: &ExperimentConfig,
    seeds: u64,
    jobs: usize,
) -> Vec<AggregatedRun> {
    let grid: Vec<(usize, u64)> =
        (0..methods.len()).flat_map(|m| (0..seeds).map(move |s| (m, s))).collect();
    let slots: Vec<Mutex<Option<faction_core::RunRecord>>> =
        grid.iter().map(|_| Mutex::new(None)).collect();

    faction_engine::scoped_for_each(jobs, &grid, |slot, &(method, seed)| {
        let stream = stream_for_seed(seed);
        let arch = arch(stream.input_dim, stream.num_classes, seed);
        let mut strategy = (methods[method].1)();
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
    methods
        .iter()
        .map(|&(label, _)| {
            let rest = records.split_off(seeds as usize);
            let runs = std::mem::replace(&mut records, rest);
            AggregatedRun { strategy: label.into(), ..AggregatedRun::from_runs(&runs) }
        })
        .collect()
}

/// Resolves a fixed lineup through the engine's strategy registry, with
/// the cost knobs `--quick` implies, so a harness and `faction_cli` mean
/// the same thing by every name.
pub(crate) fn registry_methods(lineup: &Lineup, options: &HarnessOptions) -> Vec<Method> {
    let loss = options.experiment_config().loss;
    let quick = options.quick;
    lineup
        .iter()
        .map(|&(label, name)| {
            let factory: StrategyFactory = Box::new(move || {
                faction_engine::build_strategy(name, loss, 1.0, quick)
                    .unwrap_or_else(|| panic!("'{name}' is not a registered strategy"))
            });
            (label, factory)
        })
        .collect()
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

    type Parsed = Result<(HarnessOptions, Vec<&'static str>), String>;

    fn parse(args: &[&str], extra: &[&'static str]) -> Parsed {
        HarnessOptions::parse(args.iter().map(|a| a.to_string()), extra)
    }

    fn options(args: &[&str]) -> HarnessOptions {
        parse(args, &[]).expect("valid arguments").0
    }

    #[test]
    fn explicit_seeds_win_over_quick_in_either_order() {
        assert_eq!(options(&["--seeds", "5", "--quick"]).seeds, 5);
        assert_eq!(options(&["--quick", "--seeds", "5"]).seeds, 5);
        assert_eq!(options(&["--quick"]).seeds, 2);
        assert_eq!(options(&[]).seeds, 5);
        let (options, extra) =
            parse(&["fair", "--seeds", "1", "--quick"], &["fair", "ablation"]).unwrap();
        assert_eq!((options.seeds, options.quick, extra), (1, true, vec!["fair"]));
    }

    #[test]
    fn a_stray_positional_is_an_error_unless_the_binary_accepts_it() {
        let err = parse(&["fair", "--quick"], &[]).unwrap_err();
        assert!(err.contains("'fair'"), "{err}");
        let err = parse(&["ablaton"], &["fair", "ablation"]).unwrap_err();
        assert!(err.contains("'ablaton'"), "{err}");
        assert_eq!(parse(&["ablation"], &["fair", "ablation"]).unwrap().1, vec!["ablation"]);
    }

    #[test]
    fn an_unknown_flag_is_an_error_unless_the_binary_accepts_it() {
        assert!(parse(&["--bogus"], &[]).unwrap_err().contains("'--bogus'"));
        assert!(parse(&["--extended"], &[]).is_err());
        assert!(parse(&["--extended"], &["fair", "ablation"]).is_err());
        let (_, extra) = parse(&["--quick", "--extended"], &["--extended"]).unwrap();
        assert_eq!(extra, vec!["--extended"]);
    }

    #[test]
    fn a_missing_or_malformed_value_is_an_error() {
        for (args, needle) in [
            (&["--seeds"][..], "--seeds needs a value"),
            (&["--seeds", "x"], "'x'"),
            (&["--seeds", "-1"], "'-1'"),
            (&["--seeds", "0"], "positive"),
            (&["--dataset", "MNIST"], "unknown dataset 'MNIST'"),
            (&["--jobs", "two"], "'two'"),
            (&["--pool-policy", "lru"], "--pool-policy"),
            (&["--out"], "--out needs a value"),
        ] {
            let err = parse(args, &[]).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn run_lineup_aggregates_each_method_under_its_label() {
        let methods: Vec<Method> = vec![
            ("random", Box::new(|| Box::new(Random))),
            ("entropy", Box::new(|| Box::new(EntropyAl))),
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
        let tiny = faction_nn::presets::tiny;
        let aggregated = run_lineup(&stream_for_seed, &methods, tiny, &cfg, 2, 2);
        assert_eq!(aggregated.len(), 2);
        assert_eq!(aggregated[0].strategy, "random");
        assert_eq!(aggregated[1].strategy, "entropy");
        assert_eq!(aggregated[0].seeds, 2);
        assert_eq!(aggregated[0].tasks.len(), 2);
    }
}
