//! Training-health monitor: NaN/Inf sentinels and per-epoch gauges.
//!
//! Numeric blow-ups in temporal GNN training (exploding attention
//! logits, memory-state drift) used to surface as hard `is_finite`
//! panics deep in the epoch loop. The monitor converts them into
//! structured [`tgl_obs::health`] events and lets a [`HealthPolicy`]
//! decide what happens next:
//!
//! * [`HealthPolicy::Warn`] (default) — record a `warn` event, skip the
//!   poisoned batch (its gradients would corrupt the parameters), and
//!   keep training;
//! * [`HealthPolicy::Fail`] — record a `fail` event, then panic so CI
//!   stops at the first corruption;
//! * [`HealthPolicy::Off`] — legacy behavior: no checks, non-finite
//!   losses propagate.
//!
//! Per epoch the monitor also publishes training-dynamics gauges —
//! `health.grad_norm` (L2 norm of the last batch's gradients),
//! `health.update_ratio` (‖θ_end − θ_start‖ / ‖θ_start‖, the classic
//! "is the learning rate sane" diagnostic: healthy runs sit around
//! 1e-3), `health.loss` and `health.loss_trend` (relative change vs the
//! previous epoch; negative = improving) — which the run report's
//! `gauges` section records.

use tgl_obs::health::{self, Level};
use tgl_tensor::Tensor;

/// What the trainer does when a health check trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthPolicy {
    /// No checks; non-finite values propagate (pre-monitor behavior).
    Off,
    /// Record a `warn` event and skip the poisoned batch.
    #[default]
    Warn,
    /// Record a `fail` event, then panic.
    Fail,
}

impl HealthPolicy {
    /// Parses a policy name (`off` / `warn` / `fail`).
    pub fn parse(s: &str) -> Option<HealthPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(HealthPolicy::Off),
            "warn" => Some(HealthPolicy::Warn),
            "fail" => Some(HealthPolicy::Fail),
            _ => None,
        }
    }

    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            HealthPolicy::Off => "off",
            HealthPolicy::Warn => "warn",
            HealthPolicy::Fail => "fail",
        }
    }

    fn event_level(self) -> Level {
        if self == HealthPolicy::Fail {
            Level::Fail
        } else {
            Level::Warn
        }
    }
}

/// L2 norm of all gradients currently attached to `params`
/// (parameters without a gradient contribute 0).
fn grad_norm(params: &[Tensor]) -> f64 {
    let mut sq = 0.0f64;
    for p in params {
        p.with_grad(|g| {
            if let Some(g) = g {
                sq += g.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
            }
        });
    }
    sq.sqrt()
}

/// One epoch's training-dynamics summary, as published to the
/// `health.*` gauges by [`HealthMonitor::end_epoch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochHealth {
    /// L2 norm of the last batch's gradients.
    pub grad_norm: f64,
    /// ‖θ_end − θ_start‖ / ‖θ_start‖ over the epoch.
    pub update_ratio: f64,
    /// Mean training loss.
    pub loss: f64,
    /// Relative loss change vs the previous epoch (negative =
    /// improving; 0 on the first epoch).
    pub loss_trend: f64,
}

/// Per-run health state: owns the epoch-start parameter snapshot and
/// the previous epoch's loss for trend computation. One instance lives
/// inside the [`Trainer`](crate::Trainer) across epochs.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    start_params: Vec<Vec<f32>>,
    prev_loss: Option<f64>,
}

impl HealthMonitor {
    /// A monitor applying `policy`.
    pub fn new(policy: HealthPolicy) -> HealthMonitor {
        HealthMonitor {
            policy,
            start_params: Vec::new(),
            prev_loss: None,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Records `msg` from `source` at the policy's level. Under
    /// [`HealthPolicy::Fail`] it then writes a flight dump and panics;
    /// the panic hook's recently-dumped check avoids a second dump.
    fn trip(&self, source: &'static str, msg: String) {
        health::record(self.policy.event_level(), source, msg.clone());
        if self.policy == HealthPolicy::Fail {
            crate::flightdump::dump("health-fail", Some(self.policy));
            panic!("health: {msg} (--health fail)");
        }
    }

    /// Snapshots parameters at the epoch start so
    /// [`end_epoch`](HealthMonitor::end_epoch) can compute the
    /// parameter-update ratio. No-op (and no copy) under
    /// [`HealthPolicy::Off`].
    pub fn begin_epoch(&mut self, params: &[Tensor]) {
        if self.policy == HealthPolicy::Off {
            return;
        }
        self.start_params = params.iter().map(Tensor::to_vec).collect();
    }

    /// Checks one batch's loss. Returns `true` when the batch should
    /// proceed to backward/step; `false` means the loss was non-finite
    /// and the batch must be skipped (a `warn` event was recorded).
    ///
    /// # Panics
    ///
    /// Panics under [`HealthPolicy::Fail`] after recording the event.
    pub fn check_loss(&mut self, epoch: usize, batch: usize, loss: f32) -> bool {
        if self.policy == HealthPolicy::Off || loss.is_finite() {
            return true;
        }
        tgl_obs::counter!("health.nonfinite_loss").incr();
        self.trip("trainer.loss", format!("non-finite loss {loss} at epoch {epoch} batch {batch}"));
        false
    }

    /// Checks a batch of evaluation scores. Returns `true` when every
    /// score is finite; otherwise records a `trainer.eval` event and
    /// advances `health.nonfinite_scores` — an AP over poisoned scores
    /// is meaningless and the caller should report 0 instead.
    ///
    /// # Panics
    ///
    /// Panics under [`HealthPolicy::Fail`] after recording the event.
    pub fn check_scores(&mut self, scores: &[f32]) -> bool {
        if self.policy == HealthPolicy::Off {
            return true;
        }
        let bad = scores.iter().filter(|v| !v.is_finite()).count();
        if bad == 0 {
            return true;
        }
        tgl_obs::counter!("health.nonfinite_scores").add(bad as u64);
        self.trip("trainer.eval", format!("{bad} of {} evaluation scores non-finite", scores.len()));
        false
    }

    /// Closes the epoch: publishes `health.grad_norm`,
    /// `health.update_ratio`, `health.loss`, and `health.loss_trend`
    /// gauges and records events for non-finite gradients or
    /// parameters. `params` must be the same tensors passed to
    /// [`begin_epoch`](HealthMonitor::begin_epoch); gradients are those
    /// of the epoch's last completed batch. Returns the computed
    /// summary (`None` under [`HealthPolicy::Off`]).
    ///
    /// # Panics
    ///
    /// Panics under [`HealthPolicy::Fail`] when gradients or parameters
    /// went non-finite.
    pub fn end_epoch(
        &mut self,
        epoch: usize,
        params: &[Tensor],
        mean_loss: f64,
    ) -> Option<EpochHealth> {
        if self.policy == HealthPolicy::Off {
            return None;
        }
        let gn = grad_norm(params);
        tgl_obs::gauge!("health.grad_norm").set(gn);

        let (mut cur_sq, mut delta_sq, mut finite) = (0.0f64, 0.0f64, true);
        for (p, start) in params.iter().zip(&self.start_params) {
            let now = p.to_vec();
            for (&a, &b) in now.iter().zip(start.iter()) {
                finite &= a.is_finite();
                let (a, b) = (a as f64, b as f64);
                cur_sq += b * b;
                delta_sq += (a - b) * (a - b);
            }
        }
        let update_ratio = delta_sq.sqrt() / cur_sq.sqrt().max(1e-12);
        tgl_obs::gauge!("health.update_ratio").set(update_ratio);

        tgl_obs::gauge!("health.loss").set(mean_loss);
        let trend = match self.prev_loss {
            Some(prev) => (mean_loss - prev) / prev.abs().max(1e-12),
            None => 0.0,
        };
        tgl_obs::gauge!("health.loss_trend").set(trend);
        self.prev_loss = Some(mean_loss);

        if !gn.is_finite() {
            self.trip("trainer.grad", format!("non-finite gradient norm {gn} at end of epoch {epoch}"));
        }
        if !finite {
            self.trip("trainer.params", format!("non-finite parameters at end of epoch {epoch}"));
        }
        self.start_params.clear();
        Some(EpochHealth {
            grad_norm: gn,
            update_ratio,
            loss: mean_loss,
            loss_trend: trend,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_and_defaults_to_warn() {
        assert_eq!(HealthPolicy::parse("off"), Some(HealthPolicy::Off));
        assert_eq!(HealthPolicy::parse("WARN"), Some(HealthPolicy::Warn));
        assert_eq!(HealthPolicy::parse("fail"), Some(HealthPolicy::Fail));
        assert_eq!(HealthPolicy::parse("bogus"), None);
        assert_eq!(HealthPolicy::default(), HealthPolicy::Warn);
        assert_eq!(HealthPolicy::Fail.label(), "fail");
    }

    #[test]
    fn finite_loss_passes_nonfinite_warns_and_skips() {
        let mut m = HealthMonitor::new(HealthPolicy::Warn);
        assert!(m.check_loss(0, 0, 0.5));
        let before = tgl_obs::health::events().len();
        assert!(!m.check_loss(0, 1, f32::NAN));
        assert!(!m.check_loss(0, 2, f32::INFINITY));
        let evs = tgl_obs::health::events();
        assert!(evs.len() >= before + 2);
        assert!(evs
            .iter()
            .any(|e| e.source == "trainer.loss" && e.level == Level::Warn));
    }

    #[test]
    fn nonfinite_scores_warn_and_invalidate() {
        let mut m = HealthMonitor::new(HealthPolicy::Warn);
        assert!(m.check_scores(&[0.1, -0.4, 2.0]));
        assert!(!m.check_scores(&[0.1, f32::NAN, f32::NEG_INFINITY]));
        assert!(tgl_obs::health::events()
            .iter()
            .any(|e| e.source == "trainer.eval"));
        // Off never looks at the values at all.
        assert!(HealthMonitor::new(HealthPolicy::Off).check_scores(&[f32::NAN]));
    }

    #[test]
    fn off_policy_checks_nothing() {
        let mut m = HealthMonitor::new(HealthPolicy::Off);
        // NaN passes through untouched and no snapshot work happens.
        assert!(m.check_loss(0, 0, f32::NAN));
        let p = Tensor::from_vec(vec![1.0], [1]);
        m.begin_epoch(std::slice::from_ref(&p));
        assert!(m.start_params.is_empty());
        assert_eq!(m.end_epoch(0, &[p], f64::NAN), None);
    }

    /// The fail policy dumps the flight recorder before panicking,
    /// into a directory of the test's own.
    #[test]
    #[should_panic(expected = "non-finite loss")]
    fn fail_policy_panics_on_nonfinite_loss() {
        let _dir = crate::flightdump::tests::FlightDir::new("nonfinite-loss");
        HealthMonitor::new(HealthPolicy::Fail).check_loss(1, 2, f32::NAN);
    }

    #[test]
    fn end_epoch_publishes_gauges_and_trend() {
        let p = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let params = vec![p];
        let mut m = HealthMonitor::new(HealthPolicy::Warn);
        m.begin_epoch(&params);
        m.end_epoch(0, &params, 2.0).unwrap();
        m.begin_epoch(&params);
        let h = m.end_epoch(1, &params, 1.0).unwrap();
        // loss halved: trend = (1 - 2) / 2 = -0.5
        assert!((h.loss_trend + 0.5).abs() < 1e-9, "trend {}", h.loss_trend);
        assert_eq!(h.loss, 1.0);
        // Parameters unchanged within the epoch: update ratio 0.
        assert_eq!(h.update_ratio, 0.0);
        assert_eq!(h.grad_norm, 0.0);
    }

    #[test]
    fn grad_norm_of_gradless_params_is_zero() {
        let p = Tensor::from_vec(vec![3.0, 4.0], [2]);
        assert_eq!(grad_norm(&[p]), 0.0);
    }
}
