//! Cross-backend equivalence property suite.
//!
//! The dispatch facade promises that [`KernelBackend::Scalar`] and
//! [`KernelBackend::Simd`] are the *same arithmetic* — not merely close.
//! This suite drives both backends over random shapes (including degenerate
//! ones: `0×N`, `1×1`, `K = 0`, and tails that are not multiples of the
//! `MR`/`NR`/`KC` tile sizes) and asserts both a ≤ 1e-10 numeric bound and
//! the stronger bit-for-bit equality the kernels are engineered to provide.
//! The transposed products (`matmul_tn_into` / `matmul_nt_into`) and
//! `matvec_into` are pinned bitwise against an explicit transpose followed
//! by the i-k-j reference, at random shapes and at the shapes training
//! multiplies.
//!
//! The backend-specific entry points (`matmul_blocked`, `matmul_simd_into`)
//! are exercised directly so the property runs do not race other tests over
//! the process-global dispatch; the global facade (`Matrix::matmul_into`
//! under `set_active_backend`) is covered once under a local mutex.

use std::sync::Mutex;

use faction_linalg::kernels::{matmul_blocked, matmul_simple, transpose_into, KC, MR, NR};
use faction_linalg::simd::matmul_simd_into;
use faction_linalg::{dispatch, KernelBackend, Matrix, SeedRng};
use proptest::prelude::*;

/// Guards the process-global backend so facade tests never interleave.
static GLOBAL_BACKEND: Mutex<()> = Mutex::new(());

fn random_mat(rows: usize, cols: usize, rng: &mut SeedRng) -> Vec<f64> {
    (0..rows * cols).map(|_| rng.uniform_range(-3.0, 3.0)).collect()
}

/// Runs one `(m, k, n)` product through both backends and checks both
/// the 1e-10 bound and exact bit equality against the i-k-j reference.
fn assert_all_backends_agree(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = SeedRng::new(seed);
    let a = random_mat(m, k, &mut rng);
    let b = random_mat(k, n, &mut rng);
    let mut reference = vec![0.0; m * n];
    matmul_simple(&a, &b, &mut reference, m, k, n);

    let mut scalar = vec![0.0; m * n];
    matmul_blocked(&a, &b, &mut scalar, m, k, n);
    let mut simd = vec![0.0; m * n];
    matmul_simd_into(&a, &b, &mut simd, m, k, n);

    for (name, got) in [("scalar", &scalar), ("simd", &simd)] {
        for (i, (r, g)) in reference.iter().zip(got.iter()).enumerate() {
            assert!(
                (r - g).abs() <= 1e-10,
                "{name} {m}x{k}x{n} elem {i}: {r} vs {g}"
            );
            assert_eq!(
                r.to_bits(),
                g.to_bits(),
                "{name} {m}x{k}x{n} elem {i} not bit-identical"
            );
        }
    }
}

proptest! {
    #[test]
    fn gemm_backends_agree_on_random_shapes(
        m in 1usize..80,
        k in 1usize..70,
        n in 1usize..60,
        seed in 0u64..1000,
    ) {
        assert_all_backends_agree(m, k, n, seed);
    }

    #[test]
    fn gemm_backends_agree_on_tile_tails(
        dm in 0usize..MR,
        dk in 0usize..7,
        dn in 0usize..NR,
        seed in 0u64..1000,
    ) {
        // Shapes straddling every blocking boundary: one-past and one-short
        // of the register tile (MR × NR) and the k-panel (KC), at the
        // 64-row batch height training multiplies.
        assert_all_backends_agree(64 + dm + 1, dk + 1, NR + dn + 1, seed);
        assert_all_backends_agree(MR + dm, KC + dk, NR + dn + 1, seed.wrapping_add(1));
    }

    #[test]
    fn transposed_products_and_matvec_match_explicit_transpose(
        m in 1usize..24,
        k in 1usize..KC + 4,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        assert_transposed_products_match(m, k, n, seed);
        for &(tm, tk, tn) in &TRAINING_SHAPES {
            assert_transposed_products_match(tm, tk, tn, seed);
            // grad_w = xᵀ·δ: x is batch×in, δ is batch×out.
            assert_transposed_products_match(tk, tm, tn, seed);
            // dx = δ·wᵀ: δ is batch×out, w is in×out.
            assert_transposed_products_match(tm, tn, tk, seed);
        }
    }
}

/// The logical product shapes `(m, k, n)` the MLP multiplies in training:
/// a 64-row batch through the 16→64→32→2 layers. Backprop runs them as
/// `grad_w = xᵀ·δ` (tn) and `dx = δ·wᵀ` (nt), so each layer also appears
/// in both transposed forms.
const TRAINING_SHAPES: [(usize, usize, usize); 3] = [(64, 16, 64), (64, 64, 32), (64, 32, 2)];

/// Checks `matmul_tn_into`, `matmul_nt_into` and `matvec_into` for the
/// logical product `A(m×k)·B(k×n)` bit-for-bit against an explicit
/// transpose followed by the i-k-j reference [`matmul_simple`].
fn assert_transposed_products_match(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = SeedRng::new(seed);
    let a = random_mat(m, k, &mut rng);
    let b = random_mat(k, n, &mut rng);
    let x = random_mat(k, 1, &mut rng);
    let mut want = vec![0.0; m * n];
    matmul_simple(&a, &b, &mut want, m, k, n);

    // tn: the left operand is stored transposed (k×m).
    let mut a_t = vec![0.0; k * m];
    transpose_into(&a, &mut a_t, m, k);
    let mut tn = Matrix::zeros(m, n);
    Matrix::from_vec(k, m, a_t)
        .unwrap()
        .matmul_tn_into(&Matrix::from_vec(k, n, b.clone()).unwrap(), &mut tn)
        .unwrap();
    // nt: the right operand is stored transposed (n×k).
    let mut b_t = vec![0.0; n * k];
    transpose_into(&b, &mut b_t, k, n);
    let a_mat = Matrix::from_vec(m, k, a).unwrap();
    let mut nt = Matrix::zeros(m, n);
    a_mat.matmul_nt_into(&Matrix::from_vec(n, k, b_t).unwrap(), &mut nt).unwrap();
    for (name, got) in [("tn", tn.as_slice()), ("nt", nt.as_slice())] {
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "{name} {m}x{k}x{n} elem {i}: {w} vs {g}");
        }
    }

    let mut mv_want = vec![0.0; m];
    matmul_simple(a_mat.as_slice(), &x, &mut mv_want, m, k, 1);
    let mut mv = vec![0.0; m];
    a_mat.matvec_into(&x, &mut mv).unwrap();
    for (i, (w, g)) in mv_want.iter().zip(&mv).enumerate() {
        assert_eq!(w.to_bits(), g.to_bits(), "matvec {m}x{k} elem {i}: {w} vs {g}");
    }
}

#[test]
fn degenerate_shapes_agree_across_backends() {
    // 0×N, 1×1, K = 0, empty output — every backend must fall through the
    // same small-shape path without panicking.
    for &(m, k, n) in &[
        (0usize, 5usize, 7usize),
        (5, 0, 7),
        (0, 0, 0),
        (1, 1, 1),
        (3, 4, 0),
        (0, 7, 0),
        (1, KC + 3, 1),
    ] {
        assert_all_backends_agree(m, k, n, 99);
    }
}

#[test]
fn facade_dispatch_honors_every_backend_bitwise() {
    // Matrix::matmul_into through the *global* dispatch, each backend in
    // turn, against the naive product — under the mutex so concurrent tests
    // cannot flip the backend mid-check.
    let _guard = GLOBAL_BACKEND.lock().unwrap();
    let prev = dispatch::active_backend();
    let mut rng = SeedRng::new(7);
    let (m, k, n) = (70, 33, 29);
    let a = Matrix::from_vec(m, k, random_mat(m, k, &mut rng)).unwrap();
    let b = Matrix::from_vec(k, n, random_mat(k, n, &mut rng)).unwrap();
    let mut reference = vec![0.0; m * n];
    matmul_simple(a.as_slice(), b.as_slice(), &mut reference, m, k, n);
    for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
        dispatch::set_active_backend(backend);
        let mut out = Matrix::zeros(m, n);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(dispatch::active_backend(), backend);
        for (r, g) in reference.iter().zip(out.as_slice()) {
            assert_eq!(r.to_bits(), g.to_bits(), "backend {backend:?}");
        }
    }
    dispatch::set_active_backend(prev);
}
