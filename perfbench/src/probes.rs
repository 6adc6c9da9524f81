//! Layer probes: time single public calls of the nn, linalg, density, wire
//! and data layers on inputs captured from a traced `paper_run` (the real
//! architecture, train batch size, final pool and candidate matrix).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use faction_core::checkpoint::RunCheckpoint;
use faction_core::strategies::FactionParams;
use faction_core::SessionSnapshot;
use faction_data::datasets::Dataset;
use faction_data::Scale;
use faction_density::{DensityScratch, FairDensityEstimator};
use faction_linalg::{kernels, Matrix};
use faction_nn::dense::Dense;
use faction_nn::mlp::gather_rows;
use faction_nn::{BatchMeta, MlpWorkspace, Sgd};
use serde::Deserialize;

use crate::paper::{self, Capture};
use crate::report::Report;
use crate::stats::median;

/// Median over `reps` repetitions of the mean seconds per call of `f`,
/// each repetition making `iters` calls.
fn per_call<T>(reps: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    median(&samples)
}

/// The weight matrices of the captured network, read through its public
/// serialized form.
fn layer_weights(mlp: &faction_nn::Mlp) -> Vec<Matrix> {
    let value = serde::Serialize::to_value(mlp);
    let layers = value
        .as_object()
        .and_then(|f| serde::find_field(f, "layers"))
        .and_then(|v| match v {
            serde::Value::Array(items) => Some(items.clone()),
            _ => None,
        })
        .expect("an Mlp serializes its layers");
    layers
        .iter()
        .map(|l| {
            Dense::from_value(l)
                .expect("a serialized layer deserializes")
                .weights()
                .clone()
        })
        .collect()
}

/// Runs every probe and records the `nn.*`, `linalg.*`, `density.*` and
/// `wire.*` metrics.
pub fn layers(capture: &Capture, input: &paper::Input, scratch: &Path, report: &mut Report) {
    let train_batch = input.cfg.train_batch_size;
    let session = &capture.session;
    let pool = session.pool();
    let mlp = session.model().mlp();

    // --- nn: a train-batch of real pool rows, the real candidate matrix.
    let batch: Vec<usize> = (0..train_batch.min(pool.len())).collect();
    let xb = gather_rows(pool.features(), &batch);
    let yb: Vec<usize> = batch.iter().map(|&i| pool.labels()[i]).collect();
    let sb: Vec<i8> = batch.iter().map(|&i| pool.sensitives()[i]).collect();
    let meta = BatchMeta {
        labels: &yb,
        sensitive: &sb,
    };
    let last = capture.record.records.len().saturating_sub(1);
    let candidates = {
        let task = &input.stream.tasks[last];
        let all: Vec<usize> = (0..task.len()).collect();
        let mut m = Matrix::default();
        task.features_of_into(&all, &mut m);
        m
    };
    let mut ws = MlpWorkspace::new();
    let mut out = Matrix::default();
    let forward = per_call(7, 200, || mlp.logits_into(&xb, &mut ws, &mut out));
    let loss = capture.strategy.training_loss();
    let mut trained = mlp.clone();
    let mut opt = Sgd::new(input.cfg.learning_rate).with_momentum(0.9);
    let step = per_call(7, 100, || {
        trained.train_step_with(&xb, &meta, loss.as_ref(), &mut opt, &mut ws)
    });
    let features = per_call(7, 20, || mlp.features_into(&candidates, &mut ws, &mut out));
    let weights = layer_weights(mlp);
    let mut us: Vec<Vec<f64>> = weights
        .iter()
        .map(|w| vec![1.0 / (w.rows() as f64).sqrt(); w.rows()])
        .collect();
    let spectral = per_call(7, 200, || {
        weights
            .iter()
            .zip(us.iter_mut())
            .map(|(w, u)| faction_nn::spectral::estimate_sigma(w, u, 1))
            .sum::<f64>()
    });
    report.metric("nn.forward_us", forward * 1e6, "us");
    report.metric("nn.train_step_us", step * 1e6, "us");
    report.metric("nn.train_step_over_forward", step / forward, "ratio");
    report.metric("nn.features_us", features * 1e6, "us");
    report.metric("nn.spectral_us", spectral * 1e6, "us");
    report.note(format!(
        "nn probes: batch {}x{} through {} layers; features on {} candidates; spectral = one power iteration per layer",
        xb.rows(),
        xb.cols(),
        weights.len(),
        candidates.rows()
    ));

    // --- linalg: the three GEMM kinds of one train step, per layer.
    let n = train_batch;
    let shapes: Vec<(usize, usize)> = weights.iter().map(|w| (w.rows(), w.cols())).collect();
    let fill = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 7919) % 997) as f64 / 997.0 - 0.5)
            .collect()
    };
    let ops: Vec<_> = shapes
        .iter()
        .map(|&(fan_in, fan_out)| {
            (
                fan_in,
                fan_out,
                fill(n * fan_in),
                fill(fan_in * fan_out),
                fill(n * fan_out),
            )
        })
        .collect();
    let mut buf = vec![
        0.0;
        shapes
            .iter()
            .map(|&(i, o)| (n * i).max(n * o).max(i * o))
            .max()
            .unwrap_or(0)
    ];
    let gemm_nn = per_call(7, 200, || {
        for (fan_in, fan_out, x, w, _) in &ops {
            let out = &mut buf[..n * fan_out];
            out.fill(0.0);
            kernels::matmul_into(x, w, out, n, *fan_in, *fan_out);
        }
    });
    let gemm_tn = per_call(7, 200, || {
        for (fan_in, fan_out, x, _, delta) in &ops {
            let out = &mut buf[..fan_in * fan_out];
            out.fill(0.0);
            kernels::matmul_tn_into(x, delta, out, n, *fan_in, *fan_out);
        }
    });
    let gemm_nt = per_call(7, 200, || {
        for (fan_in, fan_out, _, w, delta) in &ops {
            kernels::matmul_nt_into(delta, w, &mut buf[..n * fan_in], n, *fan_out, *fan_in);
        }
    });
    // Computed from the shapes: 2·n·fan_in·fan_out per product.
    let flops: f64 = shapes.iter().map(|&(i, o)| 2.0 * (n * i * o) as f64).sum();
    report.metric("linalg.gemm_nn_us", gemm_nn * 1e6, "us");
    report.metric("linalg.gemm_tn_us", gemm_tn * 1e6, "us");
    report.metric("linalg.gemm_nt_us", gemm_nt * 1e6, "us");
    report.metric("linalg.gemm_nn_gflops", flops / gemm_nn / 1e9, "GFLOP/s");
    report.metric("linalg.gemm_tn_gflops", flops / gemm_tn / 1e9, "GFLOP/s");
    report.metric("linalg.gemm_nt_gflops", flops / gemm_nt / 1e9, "GFLOP/s");
    report.metric("linalg.flops_per_step", 3.0 * flops, "flop");
    report.note(format!(
        "linalg probes: {n}-row batch through layers {shapes:?}; flops computed from shapes"
    ));

    // --- density: fit on the final pool's features, score the candidates.
    let density_cfg = FactionParams::default().density;
    let pool_z = mlp.features(pool.features());
    let classes = session.model().mlp().num_classes();
    let fit = || {
        FairDensityEstimator::fit(
            &pool_z,
            pool.labels(),
            pool.sensitives(),
            classes,
            &density_cfg,
        )
        .expect("the final pool supports a density fit")
    };
    let gda_fit = per_call(5, 5, &fit);
    let estimator = fit();
    let z = mlp.features(&candidates);
    let mut scratch_d = DensityScratch::new();
    let mut log_density = vec![0.0; z.rows()];
    let mut gaps = Matrix::default();
    let gda_score = per_call(5, 10, || {
        estimator
            .score_batch_into(&z, &mut scratch_d, &mut log_density, &mut gaps)
            .expect("candidate features match the fit")
    });
    report.metric("density.gda_fit_us", gda_fit * 1e6, "us");
    report.metric("density.gda_score_us", gda_score * 1e6, "us");
    report.metric("density.score_rows", z.rows() as f64, "count");
    report.note(format!(
        "density probes: fit on {}x{} pool features, score {} candidates",
        pool_z.rows(),
        pool_z.cols(),
        z.rows()
    ));

    // --- wire: the final session's snapshot and the run's checkpoint.
    let snapshot = session.snapshot(capture.strategy.as_ref());
    let bytes = snapshot.to_wire_bytes();
    let encode = per_call(5, 3, || snapshot.to_wire_bytes());
    let decode = per_call(5, 3, || {
        SessionSnapshot::from_wire_bytes(&bytes).expect("own snapshot decodes")
    });
    let ckpt = RunCheckpoint::capture(&capture.record);
    let path = scratch.join("probe.run.wire");
    let save = per_call(5, 3, || {
        ckpt.save(&path)
            .expect("checkpoint saves under the scratch directory")
    });
    let _ = std::fs::remove_file(&path);
    report.metric("wire.snapshot_bytes", bytes.len() as f64, "bytes");
    report.metric("wire.snapshot_encode_ms", encode * 1e3, "ms");
    report.metric("wire.snapshot_decode_ms", decode * 1e3, "ms");
    report.metric("wire.checkpoint_save_ms", save * 1e3, "ms");
    report.note(format!(
        "wire probes: snapshot of the session at pool {}",
        pool.len()
    ));
}

/// `data.stream_ms`: generating the streams a workload consumes, at its
/// scale (the paper-scale RCMNIST stream, or one quick stream of each
/// dataset).
pub fn data(paper_scale: bool, seed: u64, report: &mut Report) {
    let ms = if paper_scale {
        per_call(5, 1, || Dataset::Rcmnist.stream(seed, Scale::Full)) * 1e3
    } else {
        Dataset::ALL
            .iter()
            .map(|d| per_call(5, 1, || d.stream(seed, Scale::Quick)))
            .sum::<f64>()
            * 1e3
    };
    report.metric("data.stream_ms", ms, "ms");
}
