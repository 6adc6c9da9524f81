//! Seeded input generators. The workload seed is a benchmark argument; the
//! run seed, the grid job list and the serve script are pure functions of
//! it, and the program only ever receives the generated inputs.

use faction_core::ExperimentConfig;
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_engine::ExperimentJob;

/// Seed used when `--seed` is not given; its output digests are pinned in
/// `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a 64-bit digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// SplitMix64 step: a well-mixed 64-bit function of `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small derived seed for input `salt` of workload seed `seed`.
fn derive(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt)) % 100_000
}

/// Seed of the `paper_run` stream and run.
pub fn paper_seed(seed: u64) -> u64 {
    derive(seed, 0x9A9E)
}

/// The nine strategies of the grid line-up, in presentation order.
pub const GRID_STRATEGIES: [&str; 9] = [
    "faction",
    "faction-incremental",
    "fal",
    "fal-cur",
    "decoupled",
    "qufur",
    "ddu",
    "entropy",
    "random",
];

/// The `grid_lineup` job list: 5 datasets × 9 strategies × 1 seed at quick
/// scale, dataset-major. Only the per-job seeds depend on `seed`, so every
/// seed schedules the same mix of work.
pub fn grid_jobs(seed: u64) -> Vec<ExperimentJob> {
    let mut jobs = Vec::with_capacity(Dataset::ALL.len() * GRID_STRATEGIES.len());
    for dataset in Dataset::ALL {
        for strategy in GRID_STRATEGIES {
            let salt = 0x6121 + jobs.len() as u64;
            jobs.push(ExperimentJob::new(
                dataset,
                strategy,
                derive(seed, salt),
                ExperimentConfig::quick(),
                Scale::Quick,
            ));
        }
    }
    jobs
}

/// Shape of the `serve_mixed` script.
pub mod serve_shape {
    /// `open` requests submitted.
    pub const OPENS: usize = 52;
    /// Session-table bound; the last `OPENS - MAX_SESSIONS` opens are shed.
    pub const MAX_SESSIONS: usize = 48;
    /// Tenants the admitted sessions are spread over evenly.
    pub const TENANTS: usize = 4;
    /// Tasks each session enters.
    pub const TASKS: usize = 4;
    /// `round` requests per task (budget / batch).
    pub const ROUNDS: usize = 4;
    /// Acquisition batch per round.
    pub const BATCH: usize = 5;
    /// Per-task label budget of a session.
    pub const BUDGET: usize = ROUNDS * BATCH;
    /// Sessions per task that send a second `round` before the drain.
    pub const BUSY_PER_TASK: usize = 2;
    /// Inbox bound: one queued request per session, so a second is `busy`.
    pub const INBOX: usize = 1;
    /// Label grants per tenant, below the 12 × 80 = 960 each one asks for.
    pub const TENANT_BUDGET: usize = 900;
    /// Datasets the sessions draw from.
    pub const DATASETS: [&str; 5] = ["rcmnist", "celeba", "fairface", "ffhq", "nysf"];
    /// Strategies the sessions run.
    pub const STRATEGIES: [&str; 3] = ["faction", "faction-incremental", "entropy"];
}

/// Outcome counts the serve script is designed to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeExpect {
    /// Opens refused because the table is full.
    pub shed: usize,
    /// Requests refused because an inbox is full.
    pub busy: usize,
    /// Labels the tenant ledgers deny.
    pub denied: usize,
    /// Labels the tenant ledgers grant.
    pub granted: usize,
    /// `round` requests answered.
    pub rounds: usize,
    /// Drains (= waves, one request per session per drain).
    pub waves: usize,
}

/// A generated `serve_mixed` script plus the server bounds it assumes.
#[derive(Debug, Clone)]
pub struct ServeScript {
    /// The workload text in the `faction-serve` request language.
    pub text: String,
    /// What a correct server answers.
    pub expect: ServeExpect,
}

/// Tiny deterministic RNG for shuffles and picks.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = splitmix64(self.0);
        (self.0 % n as u64) as usize
    }
}

/// The `serve_mixed` script: a closed loop of 48 admitted sessions (52
/// opens, 4 shed). Every session sends at most one request per drain, so
/// each drain is one wave and its latency is what every request in it sees.
/// Per task: a `task` wave, a `snapshot` wave for a quarter of the sessions,
/// four `round` waves (two sessions send an extra `round` into a full inbox
/// in the second one) and, on odd tasks, a `restore` wave for that quarter.
/// The seed picks session seeds, the order of the fixed dataset × strategy
/// mix, the snapshot quarter and the busy sessions.
pub fn serve_script(seed: u64) -> ServeScript {
    use serve_shape::*;
    let mut rng = Rng(splitmix64(seed ^ 0x5E7E));
    let combos: Vec<(&str, &str)> = DATASETS
        .iter()
        .flat_map(|&d| STRATEGIES.iter().map(move |&s| (d, s)))
        .collect();
    let mut kinds: Vec<(&str, &str)> = (0..OPENS).map(|i| combos[i % combos.len()]).collect();
    // Shuffle only the admitted prefix, so the admitted mix is the same
    // multiset for every seed.
    for i in (1..MAX_SESSIONS).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let quarter_offset = rng.below(4);

    let mut text = format!("# serve_mixed, workload seed {seed}\n");
    let mut waves = 0usize;
    let mut drain = |text: &mut String| {
        text.push_str("drain\n");
        waves += 1;
    };
    for (i, (dataset, strategy)) in kinds.iter().enumerate() {
        text.push_str(&format!(
            "open s{i:02} tenant=t{} dataset={dataset} strategy={strategy} seed={} \
             budget={BUDGET} batch={BATCH} warm=20 epochs=1 tasks={TASKS}\n",
            i % TENANTS,
            derive(seed, 0x0E17 + i as u64),
        ));
    }
    drain(&mut text);
    let admitted = 0..MAX_SESSIONS;
    let mut busy = 0usize;
    for t in 0..TASKS {
        for i in admitted.clone() {
            text.push_str(&format!("task s{i:02} {t}\n"));
        }
        drain(&mut text);
        let quarter: Vec<usize> = admitted
            .clone()
            .filter(|i| (i + t + quarter_offset).is_multiple_of(4))
            .collect();
        for i in &quarter {
            text.push_str(&format!("snapshot s{i:02}\n"));
        }
        drain(&mut text);
        let mut pushy: Vec<usize> = Vec::with_capacity(BUSY_PER_TASK);
        while pushy.len() < BUSY_PER_TASK {
            let i = rng.below(MAX_SESSIONS);
            if !pushy.contains(&i) {
                pushy.push(i);
            }
        }
        for r in 0..ROUNDS {
            for i in admitted.clone() {
                text.push_str(&format!("round s{i:02}\n"));
                if r == 1 && pushy.contains(&i) {
                    text.push_str(&format!("round s{i:02}\n"));
                    busy += 1;
                }
            }
            drain(&mut text);
        }
        if t % 2 == 1 {
            for i in &quarter {
                text.push_str(&format!("restore s{i:02}\n"));
            }
            drain(&mut text);
        }
    }
    for i in admitted {
        text.push_str(&format!("close s{i:02}\n"));
    }
    drain(&mut text);

    let per_tenant = MAX_SESSIONS / TENANTS;
    let asked = per_tenant * TASKS * BUDGET;
    let denied = TENANTS * asked.saturating_sub(TENANT_BUDGET);
    ServeScript {
        text,
        expect: ServeExpect {
            shed: OPENS - MAX_SESSIONS,
            busy,
            denied,
            granted: TENANTS * asked - denied,
            rounds: MAX_SESSIONS * TASKS * ROUNDS,
            waves,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_list(seed: u64) -> String {
        grid_jobs(seed)
            .iter()
            .map(ExperimentJob::key)
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn one_seed_always_yields_the_same_inputs() {
        assert_eq!(
            serve_script(DEFAULT_SEED).text,
            serve_script(DEFAULT_SEED).text
        );
        assert_eq!(job_list(DEFAULT_SEED), job_list(DEFAULT_SEED));
        assert_eq!(paper_seed(DEFAULT_SEED), paper_seed(DEFAULT_SEED));
        // Pinned: a change to any generator must show here.
        assert_eq!(
            digest(serve_script(DEFAULT_SEED).text.as_bytes()),
            "52ee6b04ba6f7823"
        );
        assert_eq!(
            digest(job_list(DEFAULT_SEED).as_bytes()),
            "111993488e543b43"
        );
        assert_eq!(paper_seed(DEFAULT_SEED), 25169);
    }

    #[test]
    fn other_seeds_yield_other_inputs_of_the_same_shape() {
        let (a, b) = (serve_script(1), serve_script(2));
        assert_ne!(a.text, b.text);
        assert_eq!(a.expect, b.expect);
        assert_eq!(a.text.lines().count(), b.text.lines().count());
        assert_ne!(job_list(1), job_list(2));
        assert_eq!(grid_jobs(2).len(), 45);
    }

    #[test]
    fn serve_script_parses_and_has_the_designed_shape() {
        let s = serve_script(DEFAULT_SEED);
        let requests = faction_serve::parse_workload(&s.text, &ExperimentConfig::quick())
            .expect("generated script parses");
        let opens = requests
            .iter()
            .filter(|r| matches!(r, faction_serve::Request::Open(_)))
            .count();
        assert_eq!(opens, serve_shape::OPENS);
        assert_eq!(s.expect.shed, 4);
        assert_eq!(s.expect.busy, 2 * serve_shape::TASKS);
        assert_eq!(s.expect.denied, 4 * (960 - 900));
        assert_eq!(s.expect.rounds, 48 * 16);
        // 1 open + 4 × (task + snapshot + 4 rounds) + 2 restores + 1 close.
        assert_eq!(s.expect.waves, 28);
    }
}
