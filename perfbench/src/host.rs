//! Host fingerprint and process memory: results from different hosts must
//! not be compared, so every result carries where it was measured.

use std::process::Command;

/// Where and with what a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Whether the AVX2 GEMM micro-kernel can run here.
    pub simd_available: bool,
    /// The GEMM backend the process resolved to.
    pub backend: String,
    /// `rustc --version` of the toolchain on PATH.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Fingerprint {
    /// Probes the current host.
    pub fn probe() -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            simd_available: faction_linalg::dispatch::simd_available(),
            backend: faction_linalg::dispatch::active_backend()
                .as_str()
                .to_string(),
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"simd_available\": {}, \"backend\": {:?}, \"rustc\": {:?}, \"commit\": {:?}}}",
            self.nproc, self.simd_available, self.backend, self.rustc, self.commit
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
