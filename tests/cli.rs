//! Command-line surface checks for the `faction_cli` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use faction::core::checkpoint::RunCheckpoint;
use faction::core::{OnlineSession, SessionSnapshot};
use faction::engine::Journal;
use faction::prelude::*;

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faction_cli"))
        .args(args)
        .output()
        .expect("faction_cli runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faction_cli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// Rendered records as `inspect` prints them: one line each.
fn as_lines(rendered: &[String]) -> String {
    rendered.iter().map(|line| format!("{line}\n")).collect()
}

/// Runs a one-job quick grid into `dir` and returns its run checkpoint and
/// its journal.
fn quick_grid(dir: &Path) -> (PathBuf, PathBuf) {
    let ckpt_dir = dir.join("ck");
    let journal = dir.join("grid.journal");
    let grid = cli(&[
        "grid",
        "--quick",
        "--datasets",
        "NYSF",
        "--strategies",
        "random",
        "--seeds",
        "1",
        "--checkpoint-dir",
        path_str(&ckpt_dir),
        "--journal",
        path_str(&journal),
    ]);
    assert!(grid.status.success(), "{}", stderr(&grid));
    (ckpt_dir.join("NYSF-random-s0.run.wire"), journal)
}

/// Asserts a usage error: exit 2, `expected` as the first stderr line, then
/// the usage text, which is returned.
fn assert_usage_error(out: &Output, expected: &str) -> String {
    assert_eq!(out.status.code(), Some(2), "{expected}");
    let stderr = stderr(out);
    let (first, usage) = stderr.split_once('\n').unwrap_or((&stderr, ""));
    assert_eq!(first, expected);
    assert!(usage.contains("USAGE:"), "{stderr}");
    usage.to_string()
}

#[test]
fn kernel_backend_is_an_unknown_flag() {
    // The GEMM backend is chosen by CPU detection alone, and artifacts are
    // read after the fact with `inspect`: asking for either on the command
    // line is the ordinary unknown-flag usage error.
    for flag in [&["--kernel-backend", "scalar"][..], &["--debug-export"][..]] {
        let name = flag[0];
        for (command, required) in [
            ("run", &["--dataset", "NYSF"][..]),
            ("grid", &[][..]),
            ("serve", &["--workload", "w"][..]),
        ] {
            let out = cli(&[&[command][..], required, flag].concat());
            let usage = assert_usage_error(
                &out,
                &format!("error: unknown flag '{name}' for '{command}'"),
            );
            assert!(
                !usage.contains(&name[2..]),
                "{command}: usage still lists {name}"
            );
        }
    }
}

#[test]
fn zero_seeds_is_a_usage_error() {
    // Zero seeds would run nothing and exit 0; every harness rejects it,
    // and so do `run` and `grid`.
    for args in [
        &["run", "--dataset", "NYSF", "--seeds", "0"][..],
        &["grid", "--seeds", "0"][..],
    ] {
        assert_usage_error(
            &cli(args),
            "error: invalid value '0' for --seeds (expected positive integer)",
        );
    }
}

#[test]
fn stray_positional_is_a_usage_error() {
    // A positional that follows neither a flag nor the command is a usage
    // error naming it, never dropped: `grid --seeds 2 3` must not run 2
    // seeds. `--quick` takes no value, so the argument after it is a
    // positional too.
    for (args, stray) in [
        (&["grid", "--seeds", "2", "3"][..], "3"),
        (&["run", "NYSF", "--dataset", "NYSF"][..], "NYSF"),
        (&["serve", "--workload", "w", "extra"][..], "extra"),
        (&["drift", "--quick", "RCMNIST", "more"][..], "RCMNIST"),
        (
            &["stats", "--dataset", "NYSF", "--quick", "stray"][..],
            "stray",
        ),
        (
            &["stats", "--dataset", "NYSF", "--quick", "false"][..],
            "false",
        ),
        (&["stats", "x"][..], "x"),
        (&["list", "all"][..], "all"),
        (&["inspect", "a.wire", "b.wire"][..], "b.wire"),
    ] {
        let out = cli(args);
        assert_usage_error(
            &out,
            &format!("error: unexpected argument '{stray}' for '{}'", args[0]),
        );
    }
    assert_usage_error(
        &cli(&["inspect"]),
        "error: inspect needs a PATH (a faction-wire file)",
    );
    assert_usage_error(
        &cli(&["inspect", "a.wire", "--json"]),
        "error: unknown flag '--json' for 'inspect'",
    );
}

#[test]
fn inspect_renders_what_a_grid_left_behind() {
    let dir = scratch("grid");
    let (wire, journal) = quick_grid(&dir);

    // The journal: its events, then its summary, as replay decodes them.
    let replay = Journal::replay(&journal).unwrap();
    let summary = replay
        .summary
        .as_ref()
        .expect("a finished grid writes its summary");
    let mut expected: Vec<String> = replay
        .events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();
    expected.push(serde_json::to_string(summary).unwrap());
    let out = cli(&["inspect", path_str(&journal)]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), as_lines(&expected));
    let report = stderr(&out);
    assert!(report.contains("payload kind Journal"), "{report}");
    assert!(
        report.contains(&format!("records: {} intact", expected.len())),
        "{report}"
    );
    assert!(report.contains("salvage: clean"), "{report}");

    // The run checkpoint: the same JSON as the loaded value.
    let loaded = RunCheckpoint::load(&wire).unwrap();
    let out = cli(&["inspect", path_str(&wire)]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        as_lines(&[serde_json::to_string(&loaded).unwrap()])
    );
    assert!(
        stderr(&out).contains("payload kind RunCheckpoint"),
        "{}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_renders_checkpoints_and_session_snapshots() {
    let dir = scratch("kinds");
    let stream = {
        let mut stream = Dataset::Nysf.stream(3, Scale::Quick);
        stream.tasks.truncate(1);
        stream.tasks[0].samples.truncate(60);
        stream
    };
    let cfg = ExperimentConfig {
        warm_start: 12,
        epochs_per_iteration: 1,
        ..ExperimentConfig::quick()
    };
    let arch = faction::nn::presets::tiny(stream.input_dim, stream.num_classes, 3);
    let strategy = faction::engine::build_strategy("entropy", cfg.loss, 1.0, true).unwrap();
    let mut session =
        OnlineSession::new(&arch, &cfg, 3, stream.num_classes, strategy.training_loss());
    session.warm_start(&stream.tasks[0]);

    let snapshot_path = dir.join("session.snap");
    session
        .snapshot(strategy.as_ref())
        .save(&snapshot_path)
        .unwrap();
    let snapshot = SessionSnapshot::load(&snapshot_path).unwrap();
    let out = cli(&["inspect", path_str(&snapshot_path)]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        as_lines(&[serde_json::to_string(&snapshot).unwrap()])
    );
    assert!(
        stderr(&out).contains("payload kind SessionSnapshot"),
        "{}",
        stderr(&out)
    );

    let checkpoint_path = dir.join("learner.ckpt");
    Checkpoint::capture(session.model().mlp(), session.pool(), 1)
        .save(&checkpoint_path)
        .unwrap();
    let checkpoint = Checkpoint::load(&checkpoint_path).unwrap();
    let out = cli(&["inspect", path_str(&checkpoint_path)]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        as_lines(&[serde_json::to_string(&checkpoint).unwrap()])
    );
    assert!(
        stderr(&out).contains("payload kind Checkpoint"),
        "{}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_reports_broken_files_and_exits_1() {
    let dir = scratch("broken");
    let (wire, journal) = quick_grid(&dir);

    // A journal cut inside its final record (the summary): the events
    // still print, the drop is named, and the exit code says so.
    let bytes = std::fs::read(&journal).unwrap();
    let cut = dir.join("cut.journal");
    std::fs::write(&cut, &bytes[..bytes.len() - 3]).unwrap();
    let replay = Journal::replay(&journal).unwrap();
    let events: Vec<String> = replay
        .events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();
    let out = cli(&["inspect", path_str(&cut)]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(stdout(&out), as_lines(&events));
    let report = stderr(&out);
    assert!(
        report.contains(&format!("records: {} intact", events.len())),
        "{report}"
    );
    assert!(report.contains("salvage: dropped"), "{report}");
    assert!(report.contains("torn payload"), "{report}");

    // A bit flip inside the checkpoint's payload fails its CRC.
    let mut bytes = std::fs::read(&wire).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let flipped = dir.join("flipped.run.wire");
    std::fs::write(&flipped, &bytes).unwrap();
    let out = cli(&["inspect", path_str(&flipped)]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(stdout(&out), "");
    assert!(stderr(&out).contains("CRC mismatch"), "{}", stderr(&out));

    // A JSON checkpoint is not a wire container.
    let json = dir.join("legacy.run.json");
    let loaded = RunCheckpoint::load(&wire).unwrap();
    std::fs::write(&json, serde_json::to_string_pretty(&loaded).unwrap()).unwrap();
    let out = cli(&["inspect", path_str(&json)]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(stdout(&out), "");
    assert!(
        stderr(&out).contains("not a faction-wire container"),
        "{}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}
