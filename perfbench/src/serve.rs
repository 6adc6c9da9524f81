//! `serve_mixed`: a `SessionManager` on 2 workers with a streamed journal,
//! driven by the generated closed-loop script.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use faction_core::ExperimentConfig;
use faction_serve::{parse_workload, Request, Response, ServeConfig, SessionManager};
use faction_telemetry::{Handle, Registry, Snapshot};

use crate::gen::{self, serve_shape, ServeExpect};
use crate::trace::Tracer;

/// Worker threads of the server.
pub const WORKERS: usize = 2;

/// Sessions admitted and served to close in every pass.
pub const SESSIONS: usize = serve_shape::MAX_SESSIONS;

/// The parsed script and where its journal streams.
pub struct Input {
    /// Parsed requests, drains included.
    pub requests: Vec<Request>,
    /// Outcome counts the script is designed to produce.
    pub expect: ServeExpect,
    /// Journal path, removed after every pass.
    pub journal: PathBuf,
}

/// Generates and parses the script for workload seed `seed`.
pub fn setup(seed: u64, scratch: &Path) -> Input {
    let script = gen::serve_script(seed);
    let requests =
        parse_workload(&script.text, &ExperimentConfig::quick()).expect("generated script parses");
    Input {
        requests,
        expect: script.expect,
        journal: scratch.join("serve.journal"),
    }
}

/// A fresh server for one pass.
pub fn manager(input: &Input, recorder: Handle) -> SessionManager {
    SessionManager::new(ServeConfig {
        workers: WORKERS,
        max_sessions: serve_shape::MAX_SESSIONS,
        inbox_capacity: serve_shape::INBOX,
        tenant_budget: serve_shape::TENANT_BUDGET,
        journal_path: Some(input.journal.clone()),
        recorder,
        ..ServeConfig::default()
    })
}

/// What a wave of the script does: the verb of its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveKind {
    /// Session boots.
    Open,
    /// Task entry (evaluation).
    Task,
    /// Acquisition rounds.
    Round,
    /// Snapshots.
    Snapshot,
    /// Rollbacks.
    Restore,
    /// Session closes.
    Close,
}

impl WaveKind {
    fn of(request: &Request) -> Option<WaveKind> {
        Some(match request {
            Request::Open(_) => WaveKind::Open,
            Request::Task { .. } => WaveKind::Task,
            Request::Round { .. } => WaveKind::Round,
            Request::Snapshot { .. } => WaveKind::Snapshot,
            Request::Restore { .. } => WaveKind::Restore,
            Request::Close { .. } => WaveKind::Close,
            Request::Drain => return None,
        })
    }

    /// Span name of a wave of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            WaveKind::Open => "serve.wave.open",
            WaveKind::Task => "serve.wave.task",
            WaveKind::Round => "serve.wave.round",
            WaveKind::Snapshot => "serve.wave.snapshot",
            WaveKind::Restore => "serve.wave.restore",
            WaveKind::Close => "serve.wave.close",
        }
    }
}

/// Result of one pass over the script.
pub struct Pass {
    /// Wall seconds from the first submit to the journal's final sync.
    pub seconds: f64,
    /// Latency of every drain in ms, with the kind of wave it ran.
    pub waves: Vec<(WaveKind, f64)>,
    /// The rendered decision trace.
    pub trace: String,
    /// Every response in submission order.
    pub responses: Vec<Response>,
    /// Waves the server reports it ran.
    pub waves_run: u64,
    /// Whether the journal stream synced without error.
    pub journal_ok: bool,
    /// The server's telemetry, when a registry was attached.
    pub telemetry: Option<Snapshot>,
}

/// Runs the script once on `server`. With a tracer, every submit and every
/// drain gets a span under one pass span.
pub fn pass(input: &Input, mut server: SessionManager, tracer: Option<(&Tracer, u64)>) -> Pass {
    let root = tracer.map(|(t, run)| t.span("serve.pass", None, run));
    let parent = root.as_ref().map(|g| g.id());
    let mut waves = Vec::new();
    let mut kind = WaveKind::Open;
    let start = Instant::now();
    for request in &input.requests {
        match WaveKind::of(request) {
            Some(k) => {
                kind = k;
                let _s = tracer.map(|(t, run)| t.span("serve.submit", parent, run));
                server.submit(request);
            }
            None => {
                let _s = tracer.map(|(t, run)| t.span(kind.span_name(), parent, run));
                let t0 = Instant::now();
                server.submit(request);
                waves.push((kind, t0.elapsed().as_secs_f64() * 1e3));
            }
        }
    }
    let journal_ok = server.finish_journal();
    let seconds = start.elapsed().as_secs_f64();
    drop(root);
    let _ = std::fs::remove_file(&input.journal);
    Pass {
        seconds,
        waves,
        trace: server.render_trace(),
        responses: server.responses(),
        waves_run: server.waves_run(),
        journal_ok,
        telemetry: None,
    }
}

/// One untraced pass on a fresh server.
pub fn run(input: &Input) -> Pass {
    pass(input, manager(input, Handle::noop()), None)
}

/// One traced pass: spans plus the server's own telemetry registry.
pub fn run_traced(input: &Input, tracer: &Tracer, run: u64) -> Pass {
    let registry = Arc::new(Registry::new());
    let mut p = pass(
        input,
        manager(input, Handle::new(registry.clone())),
        Some((tracer, run)),
    );
    p.telemetry = Some(registry.snapshot());
    p
}

/// Outcome counts found in a pass's responses.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `shed` responses.
    pub shed: usize,
    /// `busy` responses.
    pub busy: usize,
    /// `error` responses.
    pub errors: usize,
    /// `round` responses.
    pub rounds: usize,
    /// Labels granted across rounds.
    pub granted: usize,
    /// Labels denied across rounds.
    pub denied: usize,
}

/// Tallies the responses of a pass.
pub fn counts(responses: &[Response]) -> Counts {
    let mut c = Counts::default();
    for r in responses {
        match r {
            Response::Shed { .. } => c.shed += 1,
            Response::Busy { .. } => c.busy += 1,
            Response::Error { .. } => c.errors += 1,
            Response::Round {
                granted, denied, ..
            } => {
                c.rounds += 1;
                c.granted += granted;
                c.denied += denied;
            }
            _ => {}
        }
    }
    c
}
