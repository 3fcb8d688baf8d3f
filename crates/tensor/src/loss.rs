//! Loss functions for temporal link prediction.

use crate::Tensor;

/// Binary cross-entropy with logits, mean-reduced.
///
/// Computes `mean(max(x, 0) − x·y + ln(1 + e^{−|x|}))` — the numerically
/// stable form — with the closed-form gradient `(σ(x) − y) / N`.
/// This is the training loss of all four paper models (positive edges
/// vs sampled negative edges).
///
/// # Panics
///
/// Panics if shapes differ.
///
/// # Examples
///
/// ```
/// use tgl_tensor::{bce_with_logits, Tensor};
///
/// let logits = Tensor::from_vec(vec![10.0, -10.0], [2]);
/// let targets = Tensor::from_vec(vec![1.0, 0.0], [2]);
/// assert!(bce_with_logits(&logits, &targets).item() < 1e-3);
/// ```
pub fn bce_with_logits(logits: &Tensor, targets: &Tensor) -> Tensor {
    bce_impl(logits, targets, true)
}

/// Binary cross-entropy with logits, sum-reduced.
pub fn bce_with_logits_sum(logits: &Tensor, targets: &Tensor) -> Tensor {
    bce_impl(logits, targets, false)
}

fn bce_impl(logits: &Tensor, targets: &Tensor, mean: bool) -> Tensor {
    assert_eq!(
        logits.dims(),
        targets.dims(),
        "bce shape mismatch: {} vs {}",
        logits.shape(),
        targets.shape()
    );
    let x = logits.to_vec();
    let y = targets.to_vec();
    let len = x.len() as u64;
    // ~8 flops per element each way (exp, log1p / sigmoid and friends).
    let _prof = tgl_obs::profile::op("bce")
        .flops(8 * len)
        .io(8 * len, 4)
        .shape(&[logits.dims()])
        .backward_cost(8 * len, 8 * len, 4 * len);
    let device = logits.device();
    let n = x.len() as f32;
    let scale = if mean { 1.0 / n } else { 1.0 };
    let total: f32 = x
        .iter()
        .zip(&y)
        .map(|(&x, &y)| x.max(0.0) - x * y + (-(x.abs())).exp().ln_1p())
        .sum::<f32>()
        * scale;
    let (x_c, y_c) = (x, y);
    Tensor::make_result(
        vec![total],
        crate::Shape::scalar(),
        device,
        &[logits.clone(), targets.clone()],
        move |go| {
            let g = go[0] * scale;
            let mut dx = crate::pool::take_uninit(x_c.len(), device);
            for ((d, &x), &y) in dx.iter_mut().zip(&x_c).zip(&y_c) {
                let sig = 1.0 / (1.0 + (-x).exp());
                *d = g * (sig - y);
            }
            vec![Some(dx), None]
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::check_gradient;

    #[test]
    fn perfect_predictions_near_zero_loss() {
        let logits = Tensor::from_vec(vec![20.0, -20.0, 20.0], [3]);
        let targets = Tensor::from_vec(vec![1.0, 0.0, 1.0], [3]);
        assert!(bce_with_logits(&logits, &targets).item() < 1e-4);
    }

    #[test]
    fn wrong_predictions_high_loss() {
        let logits = Tensor::from_vec(vec![10.0], [1]);
        let targets = Tensor::from_vec(vec![0.0], [1]);
        assert!(bce_with_logits(&logits, &targets).item() > 5.0);
    }

    #[test]
    fn uninformative_logits_give_ln2() {
        let logits = Tensor::zeros([4]);
        let targets = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], [4]);
        let l = bce_with_logits(&logits, &targets).item();
        assert!((l - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn sum_is_n_times_mean() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.1], [3]);
        let targets = Tensor::from_vec(vec![1.0, 0.0, 1.0], [3]);
        let m = bce_with_logits(&logits, &targets).item();
        let s = bce_with_logits_sum(&logits, &targets).item();
        assert!((s - 3.0 * m).abs() < 1e-5);
    }

    #[test]
    fn stable_for_large_magnitude_logits() {
        let logits = Tensor::from_vec(vec![500.0, -500.0], [2]);
        let targets = Tensor::from_vec(vec![0.0, 1.0], [2]);
        let l = bce_with_logits(&logits, &targets).item();
        assert!(l.is_finite());
        assert!((l - 500.0).abs() < 1.0);
    }

    #[test]
    fn gradcheck() {
        let logits = Tensor::from_vec(vec![0.5, -1.0, 2.0], [3]).requires_grad(true);
        let targets = Tensor::from_vec(vec![1.0, 0.0, 1.0], [3]);
        check_gradient(&logits, |x| bce_with_logits(x, &targets), 1e-2);
    }

    #[test]
    fn gradient_is_sigmoid_minus_target() {
        let logits = Tensor::from_vec(vec![0.0], [1]).requires_grad(true);
        let targets = Tensor::from_vec(vec![1.0], [1]);
        bce_with_logits(&logits, &targets).backward();
        // sigmoid(0) - 1 = -0.5
        assert!((logits.grad().unwrap()[0] + 0.5).abs() < 1e-6);
    }
}
