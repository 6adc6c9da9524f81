//! Spectral normalization (Miyato et al., ICLR 2018).
//!
//! FACTION inherits DDU's requirement that the feature extractor be smooth
//! and *sensitive*: spectral normalization caps each layer's Lipschitz
//! constant, which prevents feature collapse and makes feature-space density
//! a faithful proxy for epistemic uncertainty (paper Sec. IV-B, [19], [46]).
//!
//! We use the standard one-step-per-update power iteration with a persistent
//! `u` vector (warm start), then rescale `W ← W · c/σ̂` whenever the estimated
//! top singular value `σ̂` exceeds the cap `c`. The soft variant (only shrink,
//! never grow) matches the DDU codebase's behavior for residual-free nets.

use faction_linalg::{vector, Matrix};

use crate::dense::Dense;

/// Configuration for spectral normalization.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct SpectralConfig {
    /// Upper bound for each layer's top singular value. DDU uses values in
    /// `[1, 3]`; the default of 3.0 leaves the network expressive while still
    /// bounding the Lipschitz constant.
    pub cap: f64,
    /// Power-iteration steps per enforcement call. One step with a warm
    /// start is the standard choice.
    pub power_iterations: u32,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig { cap: 3.0, power_iterations: 1 }
    }
}

/// Estimates the top singular value of `w` by power iteration, warm-starting
/// from (and updating) `u`, a vector of length `w.rows()`.
///
/// # Panics
/// Panics if `u.len() != w.rows()`.
pub fn estimate_sigma(w: &Matrix, u: &mut [f64], iterations: u32) -> f64 {
    estimate_sigma_with(w, u, iterations, &mut PowerScratch::default())
}

/// Grow-only work vectors for power iteration (`v` and `W·v`), reused
/// across layers and steps so training estimates σ without allocating.
#[derive(Debug, Clone, Default)]
pub struct PowerScratch {
    v: Vec<f64>,
    wv: Vec<f64>,
}

/// [`estimate_sigma`] with caller-provided work vectors: the same
/// operations in the same order, without allocating once `scratch` has
/// grown to `w`'s shape.
///
/// # Panics
/// Panics if `u.len() != w.rows()`.
pub fn estimate_sigma_with(
    w: &Matrix,
    u: &mut [f64],
    iterations: u32,
    scratch: &mut PowerScratch,
) -> f64 {
    assert_eq!(u.len(), w.rows(), "power iteration u must match fan_in");
    if scratch.v.len() < w.cols() {
        scratch.v.resize(w.cols(), 0.0);
    }
    if scratch.wv.len() < w.rows() {
        scratch.wv.resize(w.rows(), 0.0);
    }
    let v = &mut scratch.v[..w.cols()];
    let wv = &mut scratch.wv[..w.rows()];
    for _ in 0..iterations.max(1) {
        // v ← normalize(Wᵀ u)
        // analyzer:allow(unwrap-in-lib): `u`/`v` sized to `w` at entry (asserted above)
        w.tr_matvec_into(u, v).expect("shape checked");
        let nv = vector::norm2(v).max(f64::MIN_POSITIVE);
        vector::scale(v, 1.0 / nv);
        // u ← normalize(W v)
        // analyzer:allow(unwrap-in-lib): `v`/`wv` sized to `w` at entry
        w.matvec_into(v, wv).expect("shape checked");
        let nu = vector::norm2(wv).max(f64::MIN_POSITIVE);
        for (ui, &nui) in u.iter_mut().zip(wv.iter()) {
            *ui = nui / nu;
        }
    }
    // σ ≈ uᵀ W v.
    // analyzer:allow(unwrap-in-lib): `v`/`wv` sized to `w` at entry
    w.matvec_into(v, wv).expect("shape checked");
    vector::dot(u, wv)
}

/// Enforces the spectral cap on a dense layer in place, with `scratch` as
/// the power-iteration work vectors. Returns the sigma estimate before
/// rescaling (diagnostics).
pub fn enforce(layer: &mut Dense, cfg: &SpectralConfig, scratch: &mut PowerScratch) -> f64 {
    faction_telemetry::counter_add(
        "nn.spectral.power_iterations",
        u64::from(cfg.power_iterations),
    );
    let mut u = std::mem::take(&mut layer.power_u);
    let sigma = estimate_sigma_with(&layer.w, &mut u, cfg.power_iterations, scratch);
    layer.power_u = u;
    if sigma > cfg.cap && sigma.is_finite() && sigma > 0.0 {
        layer.w.scale(cfg.cap / sigma);
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use faction_linalg::SeedRng;

    fn top_singular_value_exact(w: &Matrix) -> f64 {
        // Brute force via many power iterations from a fresh start.
        let mut u = vec![1.0; w.rows()];
        let n = vector::norm2(&u);
        vector::scale(&mut u, 1.0 / n);
        estimate_sigma(w, &mut u, 500)
    }

    #[test]
    fn sigma_of_diagonal_matrix() {
        let w = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let mut u = vec![0.6, 0.8];
        let sigma = estimate_sigma(&w, &mut u, 200);
        assert!((sigma - 3.0).abs() < 1e-6, "sigma {sigma}");
    }

    #[test]
    fn sigma_of_scaled_identity() {
        let mut w = Matrix::identity(4);
        w.scale(2.5);
        let mut u = vec![0.5; 4];
        let sigma = estimate_sigma(&w, &mut u, 50);
        assert!((sigma - 2.5).abs() < 1e-9);
    }

    #[test]
    fn enforce_caps_large_layers() {
        let mut rng = SeedRng::new(17);
        let mut layer = Dense::new(&mut rng, 8, 6, true);
        // Blow the weights up well past the cap.
        layer.w.scale(50.0);
        let cfg = SpectralConfig { cap: 1.0, power_iterations: 3 };
        // A few enforcement rounds emulate training-time repeated calls.
        for _ in 0..30 {
            enforce(&mut layer, &cfg, &mut PowerScratch::default());
        }
        let sigma = top_singular_value_exact(&layer.w);
        assert!(sigma <= 1.05, "sigma after cap {sigma}");
    }

    #[test]
    fn enforce_leaves_small_layers_alone() {
        let mut rng = SeedRng::new(18);
        let mut layer = Dense::new(&mut rng, 5, 5, true);
        layer.w.scale(1e-3);
        let before = layer.w.clone();
        let cfg = SpectralConfig { cap: 3.0, power_iterations: 2 };
        enforce(&mut layer, &cfg, &mut PowerScratch::default());
        assert_eq!(layer.w, before);
    }

    #[test]
    fn warm_start_u_is_reused() {
        let mut rng = SeedRng::new(19);
        let mut layer = Dense::new(&mut rng, 4, 4, true);
        let u_before = layer.power_u.clone();
        enforce(&mut layer, &SpectralConfig::default(), &mut PowerScratch::default());
        assert_ne!(layer.power_u, u_before, "power-iteration state must advance");
        assert!((vector::norm2(&layer.power_u) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reused_scratch_matches_a_fresh_one_bitwise() {
        // One scratch serves a wide layer, then a narrower one: the grown
        // buffers must not leak stale entries into the smaller estimate.
        let mut rng = SeedRng::new(23);
        let wide = Dense::new(&mut rng, 12, 9, true);
        let narrow = Dense::new(&mut rng, 5, 3, true);
        let mut scratch = PowerScratch::default();
        for layer in [&wide, &narrow, &wide] {
            let mut u_fresh = layer.power_u.clone();
            let mut u_reused = layer.power_u.clone();
            let fresh = estimate_sigma(&layer.w, &mut u_fresh, 3);
            let reused = estimate_sigma_with(&layer.w, &mut u_reused, 3, &mut scratch);
            assert_eq!(fresh.to_bits(), reused.to_bits());
            assert_eq!(u_fresh, u_reused);
        }
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = SpectralConfig::default();
        assert!(cfg.cap > 0.0);
        assert!(cfg.power_iterations >= 1);
    }
}
