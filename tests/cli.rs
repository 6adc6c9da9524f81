//! Command-line surface checks for the `faction_cli` binary.

use std::process::Command;

#[test]
fn kernel_backend_is_an_unknown_flag() {
    // The GEMM backend is chosen by CPU detection alone; asking for one on
    // the command line is the ordinary unknown-flag usage error.
    for (command, required) in
        [("run", &["--dataset", "NYSF"][..]), ("grid", &[][..]), ("serve", &["--workload", "w"][..])]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_faction_cli"))
            .arg(command)
            .args(required)
            .args(["--kernel-backend", "scalar"])
            .output()
            .expect("faction_cli runs");
        assert_eq!(out.status.code(), Some(2), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (first, usage) = stderr.split_once('\n').unwrap_or((&stderr, ""));
        assert_eq!(first, format!("error: unknown flag '--kernel-backend' for '{command}'"));
        assert!(usage.contains("USAGE:"), "{command}: {stderr}");
        assert!(!usage.contains("kernel-backend"), "{command}: usage still lists the flag");
    }
}
