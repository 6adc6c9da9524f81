//! The paper's figures as functions: each runs one harness and returns its
//! typed rows, and a pure `render_*` function turns those rows into the
//! text table its binary writes. Nothing here touches the file system.
//!
//! Fixed lineups are `(label, registry name)` pairs resolved through the
//! engine's strategy registry (`registry_methods`), so a figure and
//! `faction_cli` build the same strategy for the same name. Only the Fig. 3
//! parameter sweeps and Fig. 4's shared-covariance variant construct their
//! strategies directly, because the registry has no name for them.

use faction_core::report::{render_curves, render_summary_table, AggregatedRun, TaskAggregate};
use faction_core::strategies::decoupled::{Decoupled, DecoupledParams};
use faction_core::strategies::faction::{Faction, FactionParams};
use faction_core::strategies::fal::{Fal, FalParams};
use faction_core::strategies::falcur::{FalCur, FalCurParams};
use faction_core::theory::{mean_curves, TheoryConfig, TheoryCurves};
use faction_data::datasets::Dataset;
use faction_density::FairDensityConfig;
use faction_fairness::TotalLossConfig;
use faction_nn::presets::{standard, wide};
use serde::Serialize;

use faction_engine::PAPER_LINEUP;

use crate::{
    registry_methods, run_lineup, HarnessOptions, Lineup, Method, Preset, StrategyFactory,
};

/// Table I: Random, then FACTION with components added back one by one.
const TABLE1_LINEUP: [(&str, &str); 5] = [
    ("Random", "random"),
    ("w/o fair sel. & fair reg", "faction-uncertainty"),
    ("w/o fair reg", "faction-no-reg"),
    ("w/o fair select", "faction-no-select"),
    ("FACTION", "faction"),
];

/// Fig. 4: FACTION and its three simplified variants.
const FIG4_LINEUP: [(&str, &str); 4] = [
    ("FACTION", "faction"),
    ("FACTION w/o Fair Select", "faction-no-select"),
    ("FACTION w/o Fair Reg", "faction-no-reg"),
    ("FACTION w/o Fair Select & Fair Reg", "faction-uncertainty"),
];

/// Which Fig. 5 panel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig5 {
    /// Fig. 5a: runtimes of the fairness-aware methods.
    Fair,
    /// Fig. 5b: runtimes of FACTION's ablated variants.
    Ablation,
}

impl Fig5 {
    /// The panel's lineup: the fairness-aware methods, or Table I's
    /// ablation under Fig. 5's labels.
    pub fn lineup(self) -> &'static Lineup {
        match self {
            Fig5::Fair => &[
                ("FACTION", "faction"),
                ("FAL", "fal"),
                ("FAL-CUR", "fal-cur"),
                ("Decoupled", "decoupled"),
            ],
            Fig5::Ablation => &[
                ("Random", "random"),
                ("w/o fair select & fair reg", "faction-uncertainty"),
                ("w/o fair reg", "faction-no-reg"),
                ("w/o fair select", "faction-no-select"),
                ("FACTION", "faction"),
            ],
        }
    }

    /// The base name of the panel's output files.
    pub fn output_name(self) -> &'static str {
        match self {
            Fig5::Fair => "fig5a_runtime_fair",
            Fig5::Ablation => "fig5b_runtime_ablation",
        }
    }
}

/// One Fig. 3 point: a method at one setting of its fairness parameter.
#[derive(Debug, Clone, Serialize)]
pub struct TradeoffPoint {
    /// Dataset name.
    pub dataset: String,
    /// Method name.
    pub method: String,
    /// The swept parameter, e.g. `mu=0.5`.
    pub parameter: String,
    /// Accuracy, mean over tasks of the per-task seed means.
    pub accuracy_mean: f64,
    /// Accuracy, mean over tasks of the per-task seed standard deviations.
    pub accuracy_std: f64,
    /// EOD, mean over tasks of the per-task seed means.
    pub eod_mean: f64,
    /// EOD, mean over tasks of the per-task seed standard deviations.
    pub eod_std: f64,
}

/// One Fig. 5 bar: a method's mean wall time on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeRow {
    /// Dataset name.
    pub dataset: String,
    /// Method label.
    pub method: String,
    /// Mean total runtime across seeds, in seconds.
    pub mean_total_seconds: f64,
}

/// One Theorem 1 row: the final values and growth exponents of the
/// seed-averaged curves at one horizon.
#[derive(Debug, Clone, Serialize)]
pub struct TheoryRow {
    /// Number of environments `m`.
    pub environments: usize,
    /// Horizon `T`.
    pub horizon: usize,
    /// Cumulative regret `R(T)`.
    pub final_regret: f64,
    /// Cumulative fairness violation `V(T)`.
    pub final_violation: f64,
    /// Cumulative queries `Q(T)`.
    pub final_queries: f64,
    /// Log–log growth exponent of the regret curve (0 when saturated).
    pub regret_exponent: f64,
    /// Log–log growth exponent of the violation curve.
    pub violation_exponent: f64,
    /// Log–log growth exponent of the query curve.
    pub query_exponent: f64,
}

/// Table I: FACTION vs its ablated variants on NYSF —
/// runtime plus Acc / DDP / EOD / MI, each a mean across the 16 tasks (and
/// across seeds). The shape to reproduce: runtime increases as components
/// are added; FACTION yields the best DDP/EOD/MI at a small accuracy cost
/// relative to the non-fairness-aware variant.
pub fn table1(options: &HarnessOptions) -> Vec<AggregatedRun> {
    let methods = registry_methods(&TABLE1_LINEUP, options);
    run("table1", options, &[Dataset::Nysf], &methods, standard, true)
}

/// Fig. 2: per-task Accuracy / DDP / EOD / MI curves for FACTION and the
/// seven baselines (`faction_engine::PAPER_LINEUP`) on every selected dataset.
pub fn fig2(options: &HarnessOptions) -> Vec<AggregatedRun> {
    let methods = registry_methods(&PAPER_LINEUP, options);
    run("fig2", options, &options.datasets(), &methods, standard, false)
}

/// Fig. 3: the fairness–accuracy trade-off on every selected dataset, each
/// fairness-aware method swept over its fairness parameter: FACTION's
/// `μ ∈ {0.3, 0.5, 0.7, 1.4, 2.8}`, FAL's `l ∈ {64, 96, 128, 196, 256}`
/// (`{8, 16, 32}` under `--quick`), FAL-CUR's `β ∈ {0.3, …, 0.7}` and
/// Decoupled's threshold `α ∈ {0.1, 0.2, 0.4, 0.6, 0.8}`. Points near the
/// top-left (high accuracy, low EOD) are preferred.
pub fn fig3(options: &HarnessOptions) -> Vec<TradeoffPoint> {
    let loss = options.experiment_config().loss;
    let fal_ls: &[usize] = if options.quick { &[8, 16, 32] } else { &[64, 96, 128, 196, 256] };
    let mut parameters = Vec::new();
    let mut methods: Vec<Method> = Vec::new();
    let mut add = |label, parameter, factory: StrategyFactory| {
        parameters.push(parameter);
        methods.push((label, factory));
    };
    for mu in [0.3, 0.5, 0.7, 1.4, 2.8] {
        let params = FactionParams { loss: TotalLossConfig { mu, ..loss }, ..Default::default() };
        add("FACTION", format!("mu={mu}"), Box::new(move || Box::new(Faction::new(params))));
    }
    for &l in fal_ls {
        let params = FalParams { l, ..Default::default() };
        add("FAL", format!("l={l}"), Box::new(move || Box::new(Fal::new(params))));
    }
    for beta in [0.3, 0.4, 0.5, 0.6, 0.7] {
        let params = FalCurParams { beta, ..Default::default() };
        add("FAL-CUR", format!("beta={beta}"), Box::new(move || Box::new(FalCur::new(params))));
    }
    for threshold in [0.1, 0.2, 0.4, 0.6, 0.8] {
        let params = DecoupledParams { threshold, ..Default::default() };
        let factory: StrategyFactory = Box::new(move || Box::new(Decoupled::new(params)));
        add("Decoupled", format!("alpha={threshold}"), factory);
    }
    let runs = run("fig3", options, &options.datasets(), &methods, standard, false);
    runs.into_iter()
        .zip(parameters.iter().cycle())
        .map(|(run, parameter)| {
            // Mean/std across seeds, averaged over tasks.
            let mean_std = |std: fn(&TaskAggregate) -> f64| {
                run.tasks.iter().map(std).sum::<f64>() / run.tasks.len().max(1) as f64
            };
            TradeoffPoint {
                accuracy_mean: run.overall(|t| t.accuracy.mean),
                accuracy_std: mean_std(|t| t.accuracy.std),
                eod_mean: run.overall(|t| t.eod.mean),
                eod_std: mean_std(|t| t.eod.std),
                dataset: run.dataset,
                method: run.strategy,
                parameter: parameter.clone(),
            }
        })
        .collect()
}

/// Fig. 4: FACTION vs its three simplified variants on every selected
/// dataset. The paper's claim: every simplified variant exhibits inferior
/// fairness. `extended` adds one design-choice ablation from `DESIGN.md`
/// §5: FACTION with a shared-covariance GDA.
pub fn fig4(options: &HarnessOptions, extended: bool) -> Vec<AggregatedRun> {
    let mut methods = registry_methods(&FIG4_LINEUP, options);
    if extended {
        let loss = options.experiment_config().loss;
        let density = FairDensityConfig { shared_covariance: true, ..Default::default() };
        let params = FactionParams { density, loss, ..Default::default() };
        methods.push(("FACTION (shared-cov GDA)", Box::new(move || Box::new(Faction::new(params)))));
    }
    run("fig4", options, &options.datasets(), &methods, standard, false)
}

/// Fig. 5: each method's mean runtime on every selected dataset. Expected
/// shapes: in 5a FAL is slowest by a wide margin (expected-fairness
/// retrains) and FACTION is cheaper than FAL and FAL-CUR, slightly above
/// Decoupled; in 5b runtime grows as components are added, with full
/// FACTION under 2× Random.
pub fn fig5(options: &HarnessOptions, panel: Fig5) -> Vec<RuntimeRow> {
    let methods = registry_methods(panel.lineup(), options);
    let runs = run("fig5", options, &options.datasets(), &methods, standard, true);
    runs.into_iter()
        .map(|run| RuntimeRow {
            dataset: run.dataset,
            method: run.strategy,
            mean_total_seconds: run.mean_total_seconds,
        })
        .collect()
}

/// Fig. 6: architecture generality — the paper lineup on CelebA with the
/// wide preset (the paper's Wide-ResNet-50 stand-in; see `DESIGN.md` §3).
/// The claim: FACTION's fairness advantage persists under a different
/// architecture while accuracy stays competitive.
pub fn fig6(options: &HarnessOptions) -> Vec<AggregatedRun> {
    let methods = registry_methods(&PAPER_LINEUP, options);
    run("fig6", options, &[Dataset::CelebA], &methods, wide, false)
}

/// Theorem 1: regret, cumulative fairness violation and query complexity
/// of the convex (logistic) instantiation at a sweep of horizons `T`, each
/// curve averaged over `options.seeds` seeds. For a stationary environment
/// (`m = 1`) the paper derives `R = O(√T)` and `V = O(T^¼)`; each row fits
/// log–log growth exponents over the asymptotic half of its curves. The
/// changing environment (`m = 4`) shows queries re-spiking at every
/// environment boundary.
pub fn theory(options: &HarnessOptions) -> Vec<TheoryRow> {
    let horizons: &[usize] = if options.quick { &[20, 40] } else { &[40, 80, 160, 320] };
    let mut rows = Vec::new();
    for environments in [1usize, 4] {
        for &horizon in horizons {
            let cfg = TheoryConfig { environments, ..Default::default() };
            let curves = mean_curves(&cfg, horizon, options.seeds);
            let last = |curve: &[f64]| curve.last().copied().unwrap_or(0.0);
            let final_regret = last(&curves.cum_regret);
            // A saturated (≈0) regret curve means the learner already
            // matched the fair comparator — stronger than any sublinear
            // rate; a log–log slope on such a curve is meaningless, so
            // report 0.
            let regret_exponent = TheoryCurves::growth_exponent(&curves.cum_regret);
            rows.push(TheoryRow {
                environments,
                horizon,
                final_regret,
                final_violation: last(&curves.cum_violation),
                final_queries: last(&curves.cum_queries),
                regret_exponent: if final_regret > 0.25 { regret_exponent } else { 0.0 },
                violation_exponent: TheoryCurves::growth_exponent(&curves.cum_violation),
                query_exponent: TheoryCurves::growth_exponent(&curves.cum_queries),
            });
        }
    }
    rows
}

/// Table I's text: the measured summary, then the paper's values.
pub fn render_table1(rows: &[AggregatedRun]) -> String {
    format!(
        "Table I: FACTION vs ablated variants on NYSF (mean across tasks)\n{}{}",
        render_summary_table(rows),
        concat!(
            "\npaper reference (V100 minutes / Acc / DDP / EOD / MI):\n",
            "  Random                    65.2  81.44 / 0.114 / 0.101 / 0.011\n",
            "  w/o fair sel. & fair reg  82.6  84.51 / 0.118 / 0.084 / 0.009\n",
            "  w/o fair reg              90.2  84.50 / 0.138 / 0.091 / 0.012\n",
            "  w/o fair select          110.0  82.73 / 0.110 / 0.078 / 0.010\n",
            "  FACTION                  122.6  83.41 / 0.089 / 0.059 / 0.006\n",
        )
    )
}

/// Fig. 2's text: per dataset, the four metric curves and a summary.
pub fn render_fig2(rows: &[AggregatedRun]) -> String {
    by_dataset(rows)
        .map(|group| {
            format!(
                "==== {} ====\n{}\nper-dataset summary (mean over tasks):\n{}\n",
                group[0].dataset,
                four_curves(group),
                render_summary_table(group)
            )
        })
        .collect()
}

/// Fig. 3's text: one line per point.
pub fn render_fig3(points: &[TradeoffPoint]) -> String {
    let mut text = String::from(
        "Fig. 3 fairness-accuracy trade-off (top-left preferred: high Acc, low EOD)\n",
    );
    text.push_str(&format!(
        "{:<16} {:<12} {:<14} {:>14} {:>14}\n",
        "dataset", "method", "parameter", "Acc mean±std", "EOD mean±std"
    ));
    for p in points {
        text.push_str(&format!(
            "{:<16} {:<12} {:<14} {:>7.3}±{:<6.3} {:>7.3}±{:<6.3}\n",
            p.dataset, p.method, p.parameter, p.accuracy_mean, p.accuracy_std, p.eod_mean, p.eod_std
        ));
    }
    text
}

/// Fig. 4's text: per dataset, the DDP / EOD / accuracy curves and a
/// summary.
pub fn render_fig4(rows: &[AggregatedRun]) -> String {
    by_dataset(rows)
        .map(|group| {
            format!(
                "==== {} (ablation) ====\n{}{}{}\nsummary (mean over tasks):\n{}\n",
                group[0].dataset,
                render_curves(group, "DDP (lower better)", |t| t.ddp),
                render_curves(group, "EOD (lower better)", |t| t.eod),
                render_curves(group, "accuracy (higher better)", |t| t.accuracy),
                render_summary_table(group)
            )
        })
        .collect()
}

/// Fig. 5's text: one line per (dataset, method); `seeds` is the number of
/// seeds each runtime averages.
pub fn render_fig5(panel: Fig5, seeds: u64, rows: &[RuntimeRow]) -> String {
    let letter = if panel == Fig5::Fair { 'a' } else { 'b' };
    let mut text = format!("Fig. 5{letter} runtimes (seconds, mean over {seeds} seeds)\n");
    text.push_str(&format!("{:<16} {:<32} {:>12}\n", "dataset", "method", "seconds"));
    for row in rows {
        text.push_str(&format!(
            "{:<16} {:<32} {:>12.2}\n",
            row.dataset, row.method, row.mean_total_seconds
        ));
    }
    text
}

/// Fig. 6's text: the four metric curves and a summary.
pub fn render_fig6(rows: &[AggregatedRun]) -> String {
    format!(
        "==== CelebA, wide architecture (WRN-50 stand-in) ====\n{}\nsummary (mean over tasks):\n{}",
        four_curves(rows),
        render_summary_table(rows)
    )
}

/// Theorem 1's text: the stationary ceilings, one line per row, and how to
/// read them.
pub fn render_theory(rows: &[TheoryRow]) -> String {
    let mut text = String::from("Theorem 1 empirical validation (convex logistic instantiation)\n");
    text.push_str(
        "stationary ceilings: regret exponent 0.5 (R = O(√T)), violation exponent 0.25 (V = O(T^¼))\n\n",
    );
    text.push_str(&format!(
        "{:>4} {:>8} {:>12} {:>12} {:>10} {:>8} {:>8} {:>8}\n",
        "m", "T", "R(T)", "V(T)", "Q(T)", "exp(R)", "exp(V)", "exp(Q)"
    ));
    for row in rows {
        text.push_str(&format!(
            "{:>4} {:>8} {:>12.3} {:>12.3} {:>10.0} {:>8.3} {:>8.3} {:>8.3}\n",
            row.environments,
            row.horizon,
            row.final_regret,
            row.final_violation,
            row.final_queries,
            row.regret_exponent,
            row.violation_exponent,
            row.query_exponent,
        ));
    }
    text.push_str(
        "\ninterpretation: exponents < 1 confirm sublinear growth (an exponent of 0 marks\n\
         a saturated curve — regret stops accumulating entirely, stronger than the bound);\n\
         the m=4 rows show environment changes inflating queries relative to m=1 at\n\
         equal T, matching the per-environment decomposition of Theorem 1.\n",
    );
    text
}

/// Runs `methods` on each dataset in turn at the options' scale, protocol,
/// seeds and worker count, logging progress under `figure`. Every method in
/// a comparison shares the `arch` preset (Sec. V-A3). With `timed`, each
/// method gets its own fan-out, so the runtime a figure reports is measured
/// with only that method's seeds co-scheduled; otherwise the whole lineup
/// shares one fan-out.
fn run(
    figure: &str,
    options: &HarnessOptions,
    datasets: &[Dataset],
    methods: &[Method],
    arch: Preset,
    timed: bool,
) -> Vec<AggregatedRun> {
    let (cfg, scale) = (options.experiment_config(), options.scale());
    let per_fan_out = if timed { 1 } else { methods.len().max(1) };
    let mut rows = Vec::new();
    for &dataset in datasets {
        eprintln!("{figure}: {} …", dataset.name());
        let stream_for_seed = |seed| dataset.stream(seed, scale);
        for group in methods.chunks(per_fan_out) {
            rows.extend(run_lineup(&stream_for_seed, group, arch, &cfg, options.seeds, options.jobs));
        }
    }
    rows
}

/// Rows split per dataset: every figure runs one lineup on each dataset.
fn by_dataset(rows: &[AggregatedRun]) -> std::slice::Chunks<'_, AggregatedRun> {
    rows.chunks(rows.iter().take_while(|r| r.dataset == rows[0].dataset).count().max(1))
}

/// The accuracy / DDP / EOD / MI curves of Figs. 2 and 6.
fn four_curves(rows: &[AggregatedRun]) -> String {
    [
        render_curves(rows, "accuracy (higher better)", |t| t.accuracy),
        render_curves(rows, "DDP (lower better)", |t| t.ddp),
        render_curves(rows, "EOD (lower better)", |t| t.eod),
        render_curves(rows, "MI (lower better)", |t| t.mi),
    ]
    .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn options(args: &[&str]) -> HarnessOptions {
        HarnessOptions::parse(args.iter().map(|a| a.to_string()), &[]).expect("valid arguments").0
    }

    #[test]
    fn every_fixed_lineup_resolves_through_the_registry_with_unique_labels() {
        let figures: [(&str, &Lineup); 5] = [
            ("fig2/fig6", &PAPER_LINEUP),
            ("table1", &TABLE1_LINEUP),
            ("fig4", &FIG4_LINEUP),
            ("fig5a", Fig5::Fair.lineup()),
            ("fig5b", Fig5::Ablation.lineup()),
        ];
        for (figure, lineup) in figures {
            for quick in [false, true] {
                for &(label, name) in lineup {
                    assert!(
                        faction_engine::build_strategy(
                            name,
                            TotalLossConfig::default(),
                            1.0,
                            quick
                        )
                        .is_some(),
                        "{figure}: '{label}' names unregistered strategy '{name}'"
                    );
                }
            }
            let labels: BTreeSet<&str> = lineup.iter().map(|&(label, _)| label).collect();
            assert_eq!(labels.len(), lineup.len(), "{figure}: duplicate label");
        }
    }

    #[test]
    fn theory_averages_over_the_requested_seeds() {
        // `--quick` once pinned 2 seeds whatever `--seeds` said.
        let rows = theory(&options(&["--quick", "--seeds", "1"]));
        let stationary = TheoryConfig { environments: 1, ..Default::default() };
        let final_regret = |seeds| *mean_curves(&stationary, 20, seeds).cum_regret.last().unwrap();
        assert_eq!((rows[0].environments, rows[0].horizon), (1, 20));
        assert_eq!(rows[0].final_regret.to_bits(), final_regret(1).to_bits());
        assert_ne!(rows[0].final_regret.to_bits(), final_regret(2).to_bits());
    }

    #[test]
    fn grouped_renders_start_a_section_per_dataset() {
        let row = |dataset: &str, strategy: &str| AggregatedRun {
            strategy: strategy.into(),
            dataset: dataset.into(),
            seeds: 1,
            tasks: Vec::new(),
            mean_total_seconds: 0.0,
        };
        let rows = [row("A", "x"), row("A", "y"), row("B", "x")];
        let groups: Vec<usize> = by_dataset(&rows).map(<[AggregatedRun]>::len).collect();
        assert_eq!(groups, [2, 1]);
        let text = render_fig4(&rows);
        assert_eq!(text.matches("(ablation) ====").count(), 2);
        assert!(text.starts_with("==== A (ablation) ====\n"));
    }
}
