//! Loss functions.

use shiftex_tensor::Matrix;

/// Softmax cross-entropy with integer class labels.
///
/// Returns `(mean_loss, grad_logits)` where `grad_logits` is the gradient of
/// the mean loss with respect to the raw logits — i.e. `(softmax - onehot)/N`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    let mut grad = Matrix::default();
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] with the gradient written into `grad`
/// (reshaped, allocation kept): each row's softmax is computed in place in
/// its gradient row, the same arithmetic as `shiftex_tensor::vector::softmax`.
pub(crate) fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    grad: &mut Matrix,
) -> f32 {
    assert_eq!(
        logits.rows(),
        labels.len(),
        "label count must match batch size"
    );
    let n = logits.rows().max(1);
    let classes = logits.cols();
    grad.reset(logits.rows(), classes);
    let mut total_loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(
            label < classes,
            "label {label} out of range for {classes} classes"
        );
        let row = logits.row(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let grad_row = grad.row_mut(r);
        for (e, &v) in grad_row.iter_mut().zip(row) {
            *e = (v - max).exp();
        }
        let sum: f32 = grad_row.iter().sum();
        for (j, e) in grad_row.iter_mut().enumerate() {
            let p = *e / sum;
            if j == label {
                total_loss += -(p.max(1e-12)).ln();
            }
            *e = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    total_loss / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k_loss() {
        let logits = Matrix::zeros(2, 4);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn gradient_matches_central_difference() {
        let base = Matrix::from_rows(&[&[0.3, -0.2, 0.5], &[-1.0, 0.4, 0.1]]);
        let labels = [2usize, 1];
        let (_, grad) = softmax_cross_entropy(&base, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = base.clone();
                plus.set(r, c, base.get(r, c) + eps);
                let mut minus = base.clone();
                minus.set(r, c, base.get(r, c) - eps);
                let (lp, _) = softmax_cross_entropy(&plus, &labels);
                let (lm, _) = softmax_cross_entropy(&minus, &labels);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grad.get(r, c)).abs() < 1e-3,
                    "grad mismatch at ({r},{c}): {numeric} vs {}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1]);
        let s: f32 = grad.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_label() {
        let logits = Matrix::zeros(1, 2);
        let _ = softmax_cross_entropy(&logits, &[5]);
    }
}
