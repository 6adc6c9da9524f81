//! Cross-backend equivalence property suite.
//!
//! The dispatch facade promises that [`KernelBackend::Scalar`] and
//! [`KernelBackend::Simd`] are the *same arithmetic* — not merely close.
//! This suite drives both backends over random shapes (including degenerate
//! ones: `0×N`, `1×1`, `K = 0`, and tails that are not multiples of the
//! `MR`/`NR`/`KC` tile sizes) and asserts both a ≤ 1e-10 numeric bound and
//! the stronger bit-for-bit equality the kernels are engineered to provide.
//! The transposed products run on both backends too: `tn` is pinned
//! bitwise against an explicit transpose followed by the i-k-j reference,
//! and `nt` against the per-element `vector::dot` fold it replaced (which
//! starts from `-0.0`, so signed zeros are pinned as well); `matvec_into`
//! is pinned against the same `dot` fold. All three run at random shapes,
//! at the shapes training multiplies and at the degenerate shapes.
//!
//! The backend-specific entry points (`matmul_blocked` / `matmul_simd_into`
//! and their `tn` / `nt` siblings) are exercised directly so the property
//! runs do not race other tests over the process-global dispatch; the
//! global facade (`Matrix::matmul_into` under `set_active_backend`) is
//! covered once under a local mutex.

use std::sync::Mutex;

use faction_linalg::kernels::{
    matmul_blocked, matmul_nt_blocked, matmul_simple, matmul_tn_blocked, transpose_into, KC, MR,
    NR,
};
use faction_linalg::simd::{matmul_nt_simd_into, matmul_simd_into, matmul_tn_simd_into};
use faction_linalg::{dispatch, vector, KernelBackend, Matrix, SeedRng};
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
    fn transposed_products_and_matvec_match_their_references(
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

    #[test]
    fn transposed_products_agree_on_blocked_shapes(
        m in 1usize..80,
        k in 1usize..70,
        n in 1usize..60,
        seed in 0u64..1000,
    ) {
        // Mostly past the small-volume cut-off, so the packed sweep (full
        // tiles, i/j edges) runs for both transposed layouts.
        assert_transposed_products_match(m, k, n, seed);
    }
}

/// The logical product shapes `(m, k, n)` the MLP multiplies in training:
/// a 64-row batch through the 16→64→32→2 layers. Backprop runs them as
/// `grad_w = xᵀ·δ` (tn) and `dx = δ·wᵀ` (nt), so each layer also appears
/// in both transposed forms.
const TRAINING_SHAPES: [(usize, usize, usize); 3] = [(64, 16, 64), (64, 64, 32), (64, 32, 2)];

/// The `nt` reference: every element is the `vector::dot` of a row of `a`
/// (`m×k`) with a row of `b` (`n×k`), the row·row fold `nt` used to run.
fn nt_by_dot(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            out.push(vector::dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]));
        }
    }
    out
}

fn assert_bits(name: &str, want: &[f64], got: &[f64], shape: (usize, usize, usize)) {
    let (m, k, n) = shape;
    assert_eq!(want.len(), got.len(), "{name} {m}x{k}x{n} length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.to_bits(), g.to_bits(), "{name} {m}x{k}x{n} elem {i}: {w} vs {g}");
    }
}

/// Runs `nt` for `a` (`m×k`) and `b` (`n×k`) on the scalar and SIMD
/// entries and the `Matrix` facade, each into a NaN-filled output (`nt`
/// overwrites), and pins all three to [`nt_by_dot`].
fn assert_nt_matches_dot(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    let want = nt_by_dot(a, b, m, k, n);
    let mut scalar = vec![f64::NAN; m * n];
    matmul_nt_blocked(a, b, &mut scalar, m, k, n);
    let mut simd = vec![f64::NAN; m * n];
    matmul_nt_simd_into(a, b, &mut simd, m, k, n);
    let mut facade = Matrix::filled(m, n, f64::NAN);
    Matrix::from_vec(m, k, a.to_vec())
        .unwrap()
        .matmul_nt_into(&Matrix::from_vec(n, k, b.to_vec()).unwrap(), &mut facade)
        .unwrap();
    assert_bits("nt scalar", &want, &scalar, (m, k, n));
    assert_bits("nt simd", &want, &simd, (m, k, n));
    assert_bits("nt facade", &want, facade.as_slice(), (m, k, n));
}

/// Checks the transposed products for the logical product `A(m×k)·B(k×n)`:
/// `tn` (scalar, SIMD, facade) bit-for-bit against an explicit transpose
/// followed by the i-k-j reference [`matmul_simple`], `nt` against
/// [`nt_by_dot`], and `matvec_into` of `A` against [`nt_by_dot`] too.
fn assert_transposed_products_match(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = SeedRng::new(seed);
    let a = random_mat(m, k, &mut rng);
    let b = random_mat(k, n, &mut rng);
    let mut want = vec![0.0; m * n];
    matmul_simple(&a, &b, &mut want, m, k, n);

    // tn: the left operand is stored transposed (k×m).
    let mut a_t = vec![0.0; k * m];
    transpose_into(&a, &mut a_t, m, k);
    let mut scalar = vec![0.0; m * n];
    matmul_tn_blocked(&a_t, &b, &mut scalar, k, m, n);
    let mut simd = vec![0.0; m * n];
    matmul_tn_simd_into(&a_t, &b, &mut simd, k, m, n);
    let mut facade = Matrix::zeros(m, n);
    Matrix::from_vec(k, m, a_t)
        .unwrap()
        .matmul_tn_into(&Matrix::from_vec(k, n, b.clone()).unwrap(), &mut facade)
        .unwrap();
    assert_bits("tn scalar", &want, &scalar, (m, k, n));
    assert_bits("tn simd", &want, &simd, (m, k, n));
    assert_bits("tn facade", &want, facade.as_slice(), (m, k, n));

    // nt: the right operand is stored transposed (n×k).
    let mut b_t = vec![0.0; n * k];
    transpose_into(&b, &mut b_t, k, n);
    assert_nt_matches_dot(&a, &b_t, m, k, n);

    assert_matvec_matches_dot(m, k, seed);
}

/// Pins `matvec_into` (`A·x`, `A` is `m×k`) against [`nt_by_dot`]: the
/// same row·row dot as `nt` with a single `b` row.
fn assert_matvec_matches_dot(m: usize, k: usize, seed: u64) {
    let mut rng = SeedRng::new(seed);
    let a = random_mat(m, k, &mut rng);
    let x = random_mat(k, 1, &mut rng);
    let mut mv = vec![f64::NAN; m];
    Matrix::from_vec(m, k, a.clone()).unwrap().matvec_into(&x, &mut mv).unwrap();
    assert_bits("matvec", &nt_by_dot(&a, &x, m, k, 1), &mv, (m, k, 1));
}

#[test]
fn nt_keeps_the_signed_zeros_of_the_dot_fold() {
    // ReLU-masked δ rows are all zero; times a weight row whose entries are
    // all negative, every product is `-0.0`, and the `-0.0`-seeded dot fold
    // keeps that sign where a `+0.0`-seeded sum would not. Shapes cover the
    // small-volume path, the blocked sweep and a multi-panel `k`.
    for &(m, k, n) in &[(6, 5, 3), (64, 2, 32), (64, 32, 64), (13, KC + 9, 21), (5, 0, 4)] {
        let mut rng = SeedRng::new(1000 + (m * k * n) as u64);
        let mut delta = random_mat(m, k, &mut rng);
        for row in (0..m).step_by(3) {
            delta[row * k..(row + 1) * k].fill(0.0);
        }
        // Odd weight rows all negative, even ones of either sign.
        let mut w = random_mat(n, k, &mut rng);
        for row in (1..n).step_by(2) {
            for v in &mut w[row * k..(row + 1) * k] {
                *v = -v.abs() - 0.5;
            }
        }
        assert_nt_matches_dot(&delta, &w, m, k, n);
        let mut out = vec![f64::NAN; m * n];
        matmul_nt_blocked(&delta, &w, &mut out, m, k, n);
        for i in (0..m).step_by(3) {
            for j in (1..n).step_by(2) {
                let v = out[i * n + j];
                assert!(v == 0.0 && v.is_sign_negative(), "{m}x{k}x{n} ({i},{j}) = {v:?}");
            }
        }
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
        assert_transposed_products_match(m, k, n, 99);
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
