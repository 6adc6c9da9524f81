//! Activation kernels.
//!
//! The reproduction only needs ReLU (both paper architectures use it), but
//! the kernels are written over matrices so adding another activation is a
//! two-function change.

use faction_linalg::Matrix;

/// Element-wise ReLU into a caller-provided buffer (reshaped to match `x`),
/// used by the forward workspaces.
pub fn relu_into(x: &Matrix, out: &mut Matrix) {
    out.reset_to_zeros(x.rows(), x.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *o = if v < 0.0 { 0.0 } else { v };
    }
}

/// In-place multiply of `grad` by the ReLU derivative evaluated at the
/// pre-activation `pre`: `grad[i] = 0` wherever `pre[i] <= 0`.
///
/// The derivative at exactly zero is taken as zero (the subgradient
/// convention used by every major framework).
///
/// # Panics
/// Panics if the shapes differ (programming error in the backprop plumbing).
pub fn relu_backward(grad: &mut Matrix, pre: &Matrix) {
    assert_eq!(grad.shape(), pre.shape(), "relu_backward shape mismatch");
    for (g, &p) in grad.as_mut_slice().iter_mut().zip(pre.as_slice()) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        let mut y = Matrix::zeros(3, 3);
        relu_into(&x, &mut y);
        assert_eq!(y.shape(), (1, 4));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let pre = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 3.0]).unwrap();
        let mut grad = Matrix::from_vec(1, 3, vec![5.0, 5.0, 5.0]).unwrap();
        relu_backward(&mut grad, &pre);
        assert_eq!(grad.as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn relu_backward_rejects_shape_mismatch() {
        let pre = Matrix::zeros(1, 3);
        let mut grad = Matrix::zeros(1, 2);
        relu_backward(&mut grad, &pre);
    }
}
