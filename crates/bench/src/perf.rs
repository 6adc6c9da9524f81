//! The perf smoke report: one schema, one gate table, one evaluator.
//!
//! `perf_report` records every measurement it takes into a [`PerfReport`]
//! and writes it as `<out-dir>/perf_report.json`:
//!
//! * `host` — logical cores and whether the AVX2 micro-kernel is live;
//! * `quick` — whether this was a `--quick` smoke run;
//! * `stages` — named [`StageTiming`] medians;
//! * `values` — record-only numbers (bytes, counters, ratios);
//! * `gates` — every entry of [`GATES`], each with its measured value and
//!   the verdict [`evaluate`] computed for it.
//!
//! [`GATES`] is the only place a bound lives, and [`evaluate`] is the only
//! function that turns a value into a verdict. The harness exits nonzero
//! when any gate fails or is missing ([`PerfReport::exit_status`]).

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Serialize;

/// The repo root (this crate sits at `<root>/crates/bench`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits at <root>/crates/bench")
        .to_path_buf()
}

/// Parsed `perf_report` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfOptions {
    /// Fewer timing repetitions; problem sizes are unchanged, so every
    /// ratio stays comparable with a full run.
    pub quick: bool,
    /// Directory `perf_report.json` is written to (`--out-dir DIR`,
    /// default `<repo>/target/bench-smoke`).
    pub out_dir: PathBuf,
}

impl PerfOptions {
    /// Usage line printed on a malformed command line.
    pub const USAGE: &'static str = "usage: perf_report [--quick] [--out-dir DIR]";

    /// Parses the arguments after the program name.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<PerfOptions, String> {
        let mut options = PerfOptions {
            quick: false,
            out_dir: repo_root().join("target").join("bench-smoke"),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--out-dir" => {
                    options.out_dir =
                        PathBuf::from(args.next().ok_or("--out-dir needs a value")?);
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(options)
    }
}

/// Timing for one named stage.
#[derive(Debug, Clone, Serialize)]
pub struct StageTiming {
    /// Stage name.
    pub name: String,
    /// Median wall time per call, in nanoseconds.
    pub median_ns: u64,
    /// Inner calls per timed sample.
    pub calls_per_sample: usize,
    /// Timed samples taken (the median is over these).
    pub samples: usize,
}

/// Medians the wall time of `reps` samples of `calls` back-to-back calls.
pub fn time_stage<F: FnMut()>(name: &str, reps: usize, calls: usize, mut f: F) -> StageTiming {
    let [timing] = time_interleaved(reps, calls, [(name, &mut f)]);
    timing
}

/// [`time_stage`] for stages whose medians are compared: the samples are
/// taken round-robin, one sample of every stage per round, so host drift
/// and neighbour noise land on all of them alike instead of on whichever
/// stage ran through a slow stretch.
pub fn time_interleaved<const N: usize>(
    reps: usize,
    calls: usize,
    mut stages: [(&str, &mut dyn FnMut()); N],
) -> [StageTiming; N] {
    let mut samples: [Vec<u64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for ((_, f), samples) in stages.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            samples.push((start.elapsed().as_nanos() / calls as u128) as u64);
        }
    }
    std::array::from_fn(|i| StageTiming {
        name: stages[i].0.into(),
        median_ns: median(&mut samples[i]),
        calls_per_sample: calls,
        samples: reps,
    })
}

/// The middle element after sorting (the upper one for even lengths).
pub fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Which side of its bound a gated value must fall on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// `value >= bound`.
    Higher,
    /// `value <= bound`.
    Lower,
    /// `value < bound`.
    StrictlyLower,
}

impl Better {
    /// The name written to the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
            Better::StrictlyLower => "strictly-lower",
        }
    }

    /// The comparison as printed in the gate table.
    pub fn symbol(self) -> &'static str {
        match self {
            Better::Higher => ">=",
            Better::Lower => "<=",
            Better::StrictlyLower => "<",
        }
    }
}

impl Serialize for Better {
    fn to_value(&self) -> serde::Value {
        self.as_str().to_value()
    }
}

/// The outcome of one gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The value is on the right side of the bound.
    Pass,
    /// The value is on the wrong side of the bound (or not a number).
    Fail,
    /// The host cannot exercise the claim; the value is recorded only.
    NotApplicable,
}

impl Verdict {
    /// The name written to the JSON report and the gate table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::NotApplicable => "not-applicable",
        }
    }
}

impl Serialize for Verdict {
    fn to_value(&self) -> serde::Value {
        self.as_str().to_value()
    }
}

/// One row of the gate table: a claim the code ships with.
#[derive(Debug, Clone, Copy)]
pub struct GateSpec {
    /// Gate name, also its key in `perf_report.json`.
    pub name: &'static str,
    /// The bound the measured value is held to.
    pub bound: f64,
    /// Which side of `bound` passes.
    pub better: Better,
}

/// Every gate `perf_report` checks, in the order it measures them. Each row
/// is a same-process ratio, a count or a byte ratio, so it transfers across
/// hosts, and each runs at a shape a paper-scale RCMNIST run has (16-d
/// inputs, a 16→64→32→2 MLP, 64-row batches, 830 candidates, a pool of up
/// to 2,500 rows over 2 classes × 2 groups) or says which shape it sweeps.
pub const GATES: &[GateSpec] = &[
    // The blocked GEMM over the naive i-k-j loop, summed over the forward
    // products of one training step (64-row batch through 16→64→32→2).
    GateSpec { name: "forward_gemm_blocked_speedup", bound: 1.05, better: Better::Higher },
    // The AVX2 micro-kernel over the autovectorized scalar blocked path on
    // the same forward products: never more than 10% behind it. Applies
    // with AVX2 only.
    GateSpec { name: "forward_gemm_simd_speedup", bound: 0.9, better: Better::Higher },
    // Batched GDA scoring over the per-sample reference: 830 candidates'
    // 32-d features against a fit on a 2,500-row pool (2 classes × 2
    // groups, 4 components).
    GateSpec { name: "gda_batch_speedup", bound: 5.0, better: Better::Higher },
    // A live telemetry registry on that batched scoring pass, in percent
    // over no-op.
    GateSpec { name: "telemetry_overhead_pct", bound: 3.0, better: Better::StrictlyLower },
    // One MLP training step over one forward pass, same thread, at the
    // training shape (64-row batch, 16→64→32→2): backprop must stay within
    // a small multiple of forward.
    GateSpec { name: "train_step_over_forward", bound: 5.0, better: Better::Lower },
    // Incremental-refit round cost (8 labels in, 8 evicted, 16 candidates
    // scored), sliding-window pool 4000 over pool 250.
    GateSpec { name: "incremental_growth", bound: 1.5, better: Better::Lower },
    // Full-refit round cost at the same pools: the linear baseline the
    // incremental path is measured against must really grow.
    GateSpec { name: "full_refit_growth", bound: 3.0, better: Better::Higher },
    // Steady-state push+evict cost of one 16-d row, sliding-window pool
    // 4000 over pool 250.
    GateSpec { name: "eviction_growth", bound: 2.0, better: Better::Lower },
    // Findings of the analyzer's workspace self-scan (a count: <= 0 is = 0).
    GateSpec { name: "analyzer_findings", bound: 0.0, better: Better::Lower },
    // Compact JSON bytes (what `inspect` prints) over wire container bytes
    // (what serve stashes) for a session snapshot with a 2,500-row pool.
    GateSpec { name: "snapshot_json_over_wire", bound: 2.4, better: Better::Higher },
    // Share of a FACTION job's wall clock its eval/selection/train spans
    // cover (RCMNIST, 3 tasks × 250 samples, tiny MLP).
    GateSpec { name: "phase_coverage", bound: 0.9, better: Better::Higher },
    // Wall time of a reduced grid (24 jobs: 2 datasets × 3 strategies × 4
    // seeds) at 1 worker over 4 workers; applies on 4+ cores only.
    GateSpec { name: "grid_speedup_4_workers", bound: 3.0, better: Better::Higher },
];

/// The one gate evaluator: `value` against `bound` in the `better`
/// direction. A gate the host cannot exercise (`applicable == false`) is
/// `NotApplicable` whatever its value; a NaN value fails.
pub fn evaluate(value: f64, bound: f64, better: Better, applicable: bool) -> Verdict {
    if !applicable {
        return Verdict::NotApplicable;
    }
    let pass = match better {
        Better::Higher => value >= bound,
        Better::Lower => value <= bound,
        Better::StrictlyLower => value < bound,
    };
    if pass {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

/// One evaluated gate as written to the report.
#[derive(Debug, Clone, Serialize)]
pub struct Gate {
    /// Gate name (a [`GATES`] entry).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The bound from [`GATES`].
    pub bound: f64,
    /// Which side of the bound passes.
    pub better: Better,
    /// What [`evaluate`] made of it.
    pub verdict: Verdict,
}

/// One record-only number.
#[derive(Debug, Clone, Serialize)]
pub struct NamedValue {
    /// Dotted name, e.g. `scheduler.steals`.
    pub name: String,
    /// The number.
    pub value: f64,
}

/// The host the report was measured on.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// Logical cores the host exposes.
    pub cores: usize,
    /// Whether the AVX2 GEMM micro-kernel is live.
    pub simd_available: bool,
}

/// The `perf_report.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// Where it was measured.
    pub host: Host,
    /// Whether this was a `--quick` smoke run.
    pub quick: bool,
    /// Stage medians, in recording order.
    pub stages: Vec<StageTiming>,
    /// Record-only numbers, in recording order.
    pub values: Vec<NamedValue>,
    /// Evaluated gates, in recording order.
    pub gates: Vec<Gate>,
}

impl PerfReport {
    /// An empty report for `host`.
    pub fn new(host: Host, quick: bool) -> PerfReport {
        PerfReport { host, quick, stages: Vec::new(), values: Vec::new(), gates: Vec::new() }
    }

    /// Records a stage and returns its median. Panics on a duplicate name.
    pub fn stage(&mut self, timing: StageTiming) -> u64 {
        assert!(
            self.stages.iter().all(|s| s.name != timing.name),
            "stage '{}' recorded twice",
            timing.name
        );
        let median_ns = timing.median_ns;
        self.stages.push(timing);
        median_ns
    }

    /// Records a number. Panics on a duplicate name.
    pub fn value(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(self.values.iter().all(|v| v.name != name), "value '{name}' recorded twice");
        self.values.push(NamedValue { name, value });
    }

    /// Evaluates the [`GATES`] entry `name` against `value`.
    pub fn gate(&mut self, name: &str, value: f64) {
        self.gate_if(name, value, true);
    }

    /// Like [`PerfReport::gate`], for a gate the host may not be able to
    /// exercise: with `applicable == false` the value is recorded and the
    /// verdict is `NotApplicable`. Panics on an unknown or repeated name.
    pub fn gate_if(&mut self, name: &str, value: f64, applicable: bool) {
        let spec = GATES
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("gate '{name}' is not in GATES"));
        assert!(self.gates.iter().all(|g| g.name != name), "gate '{name}' recorded twice");
        self.gates.push(Gate {
            name: name.into(),
            value,
            bound: spec.bound,
            better: spec.better,
            verdict: evaluate(value, spec.bound, spec.better, applicable),
        });
    }

    /// [`GATES`] entries this report has no verdict for.
    pub fn missing_gates(&self) -> Vec<&'static str> {
        GATES
            .iter()
            .map(|g| g.name)
            .filter(|name| self.gates.iter().all(|g| g.name != *name))
            .collect()
    }

    /// The process exit status: 1 if any gate failed or is missing, else 0.
    pub fn exit_status(&self) -> i32 {
        let failed = self.gates.iter().any(|g| g.verdict == Verdict::Fail);
        i32::from(failed || !self.missing_gates().is_empty())
    }

    /// The stage medians, the values and the gate table, as printed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            out += &format!("{:<36} median {:>14} ns\n", s.name, s.median_ns);
        }
        for v in &self.values {
            out += &format!("{:<36} {:>21.3}\n", v.name, v.value);
        }
        out += &format!("\n{:<24} {:>12}  {:<10} verdict\n", "gate", "value", "bound");
        for g in &self.gates {
            out += &format!(
                "{:<24} {:>12.3}  {:<2} {:<7.3} {}\n",
                g.name,
                g.value,
                g.better.symbol(),
                g.bound,
                g.verdict.as_str()
            );
        }
        for name in self.missing_gates() {
            out += &format!("{name:<24} {:>12}  missing\n", "-");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cores: usize) -> Host {
        Host { cores, simd_available: false }
    }

    fn spec(name: &str) -> GateSpec {
        *GATES.iter().find(|g| g.name == name).expect("gate exists")
    }

    /// A report with every gate at its bound (just under it for the strict
    /// gate), except `overridden`, which gets the given value.
    fn report_with(overridden: Option<(&str, f64)>) -> PerfReport {
        let mut report = PerfReport::new(host(8), true);
        for g in GATES {
            let value = match overridden {
                Some((name, value)) if name == g.name => value,
                _ if g.better == Better::StrictlyLower => g.bound - 1.0,
                _ => g.bound,
            };
            report.gate(g.name, value);
        }
        report
    }

    #[test]
    fn higher_passes_at_the_bound_and_fails_just_below() {
        assert_eq!(evaluate(3.0, 3.0, Better::Higher, true), Verdict::Pass);
        assert_eq!(evaluate(3.5, 3.0, Better::Higher, true), Verdict::Pass);
        assert_eq!(evaluate(2.999, 3.0, Better::Higher, true), Verdict::Fail);
    }

    #[test]
    fn lower_passes_at_the_bound_and_fails_just_above() {
        assert_eq!(evaluate(1.5, 1.5, Better::Lower, true), Verdict::Pass);
        assert_eq!(evaluate(0.9, 1.5, Better::Lower, true), Verdict::Pass);
        assert_eq!(evaluate(1.501, 1.5, Better::Lower, true), Verdict::Fail);
    }

    #[test]
    fn overhead_gate_is_strict_so_exactly_three_percent_fails() {
        let g = spec("telemetry_overhead_pct");
        assert_eq!((g.bound, g.better), (3.0, Better::StrictlyLower));
        assert_eq!(evaluate(3.0, g.bound, g.better, true), Verdict::Fail);
        assert_eq!(evaluate(2.999, g.bound, g.better, true), Verdict::Pass);
        assert_eq!(evaluate(-1.0, g.bound, g.better, true), Verdict::Pass);
    }

    #[test]
    fn nan_fails_every_direction() {
        for better in [Better::Higher, Better::Lower, Better::StrictlyLower] {
            assert_eq!(evaluate(f64::NAN, 1.0, better, true), Verdict::Fail);
        }
    }

    #[test]
    fn four_worker_gate_is_not_applicable_below_four_cores() {
        let mut report = PerfReport::new(host(2), true);
        report.gate_if("grid_speedup_4_workers", 1.82, report.host.cores >= 4);
        let gate = &report.gates[0];
        assert_eq!(gate.verdict, Verdict::NotApplicable);
        assert_eq!(gate.value, 1.82, "the measured value is still recorded");
        let mut big = PerfReport::new(host(8), true);
        big.gate_if("grid_speedup_4_workers", 1.82, big.host.cores >= 4);
        assert_eq!(big.gates[0].verdict, Verdict::Fail);
    }

    #[test]
    fn a_failed_gate_makes_the_exit_status_nonzero() {
        assert_eq!(report_with(None).exit_status(), 0);
        let failing = report_with(Some(("eviction_growth", 2.01)));
        assert_eq!(failing.gates.iter().filter(|g| g.verdict == Verdict::Fail).count(), 1);
        assert_eq!(failing.exit_status(), 1);
    }

    #[test]
    fn a_missing_gate_makes_the_exit_status_nonzero() {
        let mut report = PerfReport::new(host(8), true);
        report.gate("phase_coverage", 0.97);
        assert_eq!(report.missing_gates().len(), GATES.len() - 1);
        assert_eq!(report.exit_status(), 1);
        assert!(report.render().contains("missing"));
    }

    #[test]
    fn gate_names_are_unique() {
        for (i, a) in GATES.iter().enumerate() {
            assert!(GATES[i + 1..].iter().all(|b| b.name != a.name), "duplicate gate {}", a.name);
        }
    }

    #[test]
    #[should_panic(expected = "stage 'gemm' recorded twice")]
    fn stage_names_are_unique() {
        let mut report = PerfReport::new(host(1), true);
        let timing =
            StageTiming { name: "gemm".into(), median_ns: 1, calls_per_sample: 1, samples: 1 };
        report.stage(timing.clone());
        report.stage(timing);
    }

    #[test]
    #[should_panic(expected = "gate 'phase_coverage' recorded twice")]
    fn a_gate_is_evaluated_once() {
        let mut report = PerfReport::new(host(1), true);
        report.gate("phase_coverage", 0.95);
        report.gate("phase_coverage", 0.95);
    }

    #[test]
    #[should_panic(expected = "not in GATES")]
    fn an_unknown_gate_is_rejected() {
        PerfReport::new(host(1), true).gate("made_up", 1.0);
    }

    /// The `| gate | bound |` table under README's Performance heading, as
    /// (name, bound, comparison) rows.
    fn readme_gate_table() -> Vec<(String, f64, &'static str)> {
        let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
        let (_, performance) =
            readme.split_once("\n## Performance\n").expect("Performance section");
        let (_, table) =
            performance.split_once("| gate | bound |\n|---|---|\n").expect("gate table");
        table
            .lines()
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let name = cells[1].trim_matches('`').to_string();
                let (symbol, rest) = cells[2].split_once(' ').expect("bound is '<op> <number>'");
                let symbol = match symbol {
                    "≥" => ">=",
                    "≤" => "<=",
                    "<" => "<",
                    other => panic!("unknown comparison '{other}' for {name}"),
                };
                let bound = rest.split(' ').next().unwrap().parse().expect("numeric bound");
                (name, bound, symbol)
            })
            .collect()
    }

    #[test]
    fn readme_gate_table_matches_gates() {
        let gates: Vec<(String, f64, &str)> =
            GATES.iter().map(|g| (g.name.to_string(), g.bound, g.better.symbol())).collect();
        assert_eq!(readme_gate_table(), gates);
    }

    #[test]
    fn report_serializes_with_bound_and_direction() {
        let json = serde_json::to_string(&report_with(None)).unwrap();
        assert!(json.contains(concat!(
            r#"{"name":"telemetry_overhead_pct","value":2.0,"bound":3.0,"#,
            r#""better":"strictly-lower","verdict":"pass"}"#
        )));
        assert!(json.starts_with(concat!(
            r#"{"host":{"cores":8,"simd_available":false},"#,
            r#""quick":true,"stages":[],"values":[],"gates":["#
        )));
    }

    #[test]
    fn options_default_to_the_smoke_dir_and_reject_unknown_flags() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let default = PerfOptions::parse(args(&[])).unwrap();
        assert!(!default.quick);
        assert!(default.out_dir.ends_with("target/bench-smoke"));
        let given = PerfOptions::parse(args(&["--out-dir", "x/y", "--quick"])).unwrap();
        assert_eq!(given, PerfOptions { quick: true, out_dir: PathBuf::from("x/y") });
        assert!(PerfOptions::parse(args(&["--out-dir"])).is_err());
        assert!(PerfOptions::parse(args(&["--seeds", "3"])).is_err());
    }
}
