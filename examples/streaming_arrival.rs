//! One-at-a-time sample arrival (paper Sec. IV-D's extension): instead of
//! scoring a whole batch, samples arrive individually, the normalization
//! range updates incrementally, and each sample faces an immediate
//! query/skip decision — plus live drift monitoring via the density-drop
//! detector.
//!
//! ```text
//! cargo run --release --example streaming_arrival
//! ```

use faction::core::drift::DriftDetector;
use faction::core::streaming::StreamingSelector;
use faction::prelude::*;

fn main() {
    let stream = Dataset::Ffhq.stream(5, Scale::Quick);
    let budget_per_task = 25;

    // Warm model on a slice of the first task.
    let mut pool = LabeledPool::new();
    let first = &stream.tasks[0];
    for s in first.samples.iter().take(40) {
        pool.push(s.x.clone(), s.label, s.sensitive);
    }
    let cfg = ExperimentConfig::quick();
    let arch = faction::nn::presets::standard(stream.input_dim, stream.num_classes, 5);
    let mut model = OnlineModel::new(&arch, &cfg, 5);
    model.retrain(&pool, &faction::nn::CrossEntropyLoss);

    let detector = DriftDetector { threshold: 2.0, ..Default::default() };
    let mut rng = SeedRng::new(9);

    println!(
        "{:<6} {:<12} {:>9} {:>12} {:>7}",
        "task", "environment", "queried", "drop(nats)", "drift?"
    );
    let mut previous_env = first.env;
    for task in &stream.tasks {
        // Live drift check against the current pool.
        let pool_features = model.mlp().features(pool.features());
        let incoming_features = model.mlp().features(&task.features());
        let report = detector
            .score(
                &pool_features,
                pool.labels(),
                pool.sensitives(),
                stream.num_classes,
                &incoming_features,
            )
            .expect("drift scoring");

        // One-pass selection: each sample arrives, is scored by negative
        // log-density (epistemic uncertainty) under the pool estimator,
        // and faces an immediate Bernoulli decision.
        let estimator = FairDensityEstimator::fit(
            &pool_features,
            pool.labels(),
            pool.sensitives(),
            stream.num_classes,
            &FairDensityConfig::default(),
        )
        .expect("estimator fits");
        let mut selector = StreamingSelector::new(2.0, budget_per_task);
        let mut oracle = Oracle::new(task, budget_per_task);
        for (i, sample) in task.samples.iter().enumerate() {
            let z = model
                .mlp()
                .features(&Matrix::from_rows(std::slice::from_ref(&sample.x)).unwrap());
            let score = estimator.log_density(z.row(0)).unwrap(); // low = novel
            if selector.offer(score, &mut rng) {
                if let Some(label) = oracle.query(i) {
                    pool.push(sample.x.clone(), label, sample.sensitive);
                }
            }
        }
        model.retrain(&pool, &faction::nn::CrossEntropyLoss);

        let env_note = if task.env != previous_env { " ← new environment" } else { "" };
        previous_env = task.env;
        println!(
            "{:<6} {:<12} {:>9} {:>12.2} {:>7}{env_note}",
            task.id,
            task.env_name,
            selector.acquired(),
            report.density_drop,
            if report.drift_detected { "YES" } else { "-" }
        );
    }
    println!("\nfinal pool size: {} labeled samples", pool.len());
}
