//! Adaptive step-size driver for the embedded pairs.
//!
//! The driver owns all stage storage, so repeated integrations (one per
//! wavenumber in PLINGER) reuse buffers.  Error control follows the
//! standard mixed absolute/relative weighted RMS norm with a PI
//! controller; this matches DVERK's behaviour closely enough that step
//! counts agree to within ~10% on the LINGER system.

use crate::tableau::{Method, Tableau};
use crate::Rhs;

/// Integration options.
#[derive(Debug, Clone)]
pub struct IntegrateOpts {
    /// Relative tolerance per component.
    pub rtol: f64,
    /// Absolute tolerance per component.
    pub atol: f64,
    /// Initial step; `None` = automatic selection.
    pub h0: Option<f64>,
    /// Largest step allowed (also caps the automatic `h0`).
    pub h_max: f64,
    /// Smallest step before the driver reports stiffness failure.
    pub h_min: f64,
    /// Hard cap on accepted+rejected steps.
    pub max_steps: usize,
    /// Method selector.
    pub method: Method,
    /// Record dense-output samples (t, y) at every accepted step.
    pub record_trajectory: bool,
}

impl Default for IntegrateOpts {
    fn default() -> Self {
        Self {
            rtol: 1e-8,
            atol: 1e-12,
            h0: None,
            h_max: f64::INFINITY,
            h_min: 1e-14,
            max_steps: 10_000_000,
            method: Method::Verner65,
            record_trajectory: false,
        }
    }
}

/// Work counters for one integration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Accepted steps.
    pub accepted: usize,
    /// Rejected (error too large) steps.
    pub rejected: usize,
    /// Right-hand-side evaluations.
    pub rhs_evals: usize,
    /// Floating-point operations attributed to RHS evaluations, using the
    /// RHS's own census (`Rhs::flops_per_eval`).
    pub rhs_flops: u64,
    /// Floating-point operations spent combining stages inside the
    /// stepper itself (`≈ stages² · n` multiply-adds per step).
    pub stepper_flops: u64,
}

impl StepStats {
    /// Total counted flops.
    pub fn total_flops(&self) -> u64 {
        self.rhs_flops + self.stepper_flops
    }

    /// Total steps attempted (accepted + rejected).
    pub fn total_steps(&self) -> usize {
        self.accepted + self.rejected
    }

    /// Fraction of attempted steps that were accepted (1.0 when no
    /// steps were attempted, so an untouched integration reads as
    /// perfectly efficient rather than broken).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.total_steps() == 0 {
            1.0
        } else {
            self.accepted as f64 / self.total_steps() as f64
        }
    }

    /// Merge counters from another integration segment.
    pub fn merge(&mut self, other: &StepStats) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.rhs_evals += other.rhs_evals;
        self.rhs_flops += other.rhs_flops;
        self.stepper_flops += other.stepper_flops;
    }
}

/// One recorded sample of the trajectory.
#[derive(Debug, Clone)]
pub struct DenseSample {
    /// Time of the sample.
    pub t: f64,
    /// State at `t`.
    pub y: Vec<f64>,
    /// Derivative at `t` (enables cubic-Hermite interpolation).
    pub dydt: Vec<f64>,
}

/// Result of an integration.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Final time actually reached.
    pub t: f64,
    /// Final state.
    pub y: Vec<f64>,
    /// Work counters.
    pub stats: StepStats,
    /// Accepted-step trajectory when requested.
    pub trajectory: Vec<DenseSample>,
}

impl Solution {
    /// Cubic-Hermite interpolation of the recorded trajectory at time `t`.
    ///
    /// Panics if the trajectory was not recorded or `t` lies outside it.
    #[allow(clippy::needless_range_loop)] // lockstep over four state arrays
    pub fn sample(&self, t: f64, out: &mut [f64]) {
        assert!(
            self.trajectory.len() >= 2,
            "trajectory not recorded (set record_trajectory)"
        );
        let tr = &self.trajectory;
        let first = tr[0].t;
        let last = tr[tr.len() - 1].t;
        let fwd = last >= first;
        assert!(
            if fwd {
                (first..=last).contains(&t)
            } else {
                (last..=first).contains(&t)
            },
            "sample time {t} outside recorded range [{first}, {last}]"
        );
        // binary search for the bracketing pair
        let mut lo = 0usize;
        let mut hi = tr.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if (tr[mid].t <= t) == fwd {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (s0, s1) = (&tr[lo], &tr[hi]);
        let h = s1.t - s0.t;
        let u = if h == 0.0 { 0.0 } else { (t - s0.t) / h };
        let u2 = u * u;
        let u3 = u2 * u;
        let h00 = 2.0 * u3 - 3.0 * u2 + 1.0;
        let h10 = u3 - 2.0 * u2 + u;
        let h01 = -2.0 * u3 + 3.0 * u2;
        let h11 = u3 - u2;
        for i in 0..out.len() {
            out[i] = h00 * s0.y[i] + h10 * h * s0.dydt[i] + h01 * s1.y[i] + h11 * h * s1.dydt[i];
        }
    }
}

/// Integration failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum OdeError {
    /// Step size collapsed below `h_min` — the problem looks stiff.
    StepSizeTooSmall { t: f64, h: f64 },
    /// `max_steps` exceeded before reaching the end point.
    TooManySteps { t: f64 },
    /// NaN/Inf appeared in the state or derivative.
    NonFinite { t: f64 },
    /// The step observer asked the integration to stop (cooperative
    /// cancellation).  The state reached `t` is valid but incomplete.
    Aborted { t: f64 },
}

impl std::fmt::Display for OdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OdeError::StepSizeTooSmall { t, h } => {
                write!(f, "step size {h:e} underflow at t = {t} (stiff?)")
            }
            OdeError::TooManySteps { t } => write!(f, "step budget exhausted at t = {t}"),
            OdeError::NonFinite { t } => write!(f, "non-finite value at t = {t}"),
            OdeError::Aborted { t } => write!(f, "integration aborted by observer at t = {t}"),
        }
    }
}

impl std::error::Error for OdeError {}

/// Per-accepted-step callback for [`Integrator::integrate_observed`]:
/// sees the accepted `(t, y)` read-only, returns `false` to abort the
/// integration cooperatively.
pub type StepObserver<'a> = &'a mut dyn FnMut(f64, &[f64]) -> bool;

/// Reusable integrator workspace.
pub struct Integrator {
    k: Vec<Vec<f64>>, // stage derivatives
    ytmp: Vec<f64>,   // stage state
    yerr: Vec<f64>,   // error estimate
    ynew: Vec<f64>,   // candidate state
    err_prev: f64,    // PI controller memory
}

impl Default for Integrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Integrator {
    /// Create an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            k: Vec::new(),
            ytmp: Vec::new(),
            yerr: Vec::new(),
            ynew: Vec::new(),
            err_prev: 1.0,
        }
    }

    fn ensure_capacity(&mut self, stages: usize, n: usize) {
        if self.k.len() < stages {
            self.k.resize_with(stages, Vec::new);
        }
        for ki in &mut self.k {
            ki.resize(n, 0.0);
        }
        self.ytmp.resize(n, 0.0);
        self.yerr.resize(n, 0.0);
        self.ynew.resize(n, 0.0);
    }

    /// Integrate `rhs` from `(t0, y0)` to `t1`; `y0` is updated in place to
    /// the final state.  Supports forward and backward integration.
    pub fn integrate<R: Rhs + ?Sized>(
        &mut self,
        rhs: &mut R,
        t0: f64,
        t1: f64,
        y: &mut [f64],
        opts: &IntegrateOpts,
    ) -> Result<Solution, OdeError> {
        self.integrate_observed(rhs, t0, t1, y, opts, None)
    }

    /// Like [`Self::integrate`], with a [`StepObserver`] invoked after every
    /// accepted step.  The observer sees the accepted `(t, y)` read-only
    /// and cannot perturb the numerics — results are bit-identical with
    /// or without it, and no extra RHS evaluations are spent on its
    /// behalf.  It exists so long integrations can report liveness
    /// (PLINGER workers heartbeat between DVERK step batches) and so
    /// callers can record state histories on the integrator's natural
    /// steps (the line-of-sight source recorder).  Returning `false`
    /// aborts the integration with [`OdeError::Aborted`] (cooperative
    /// cancellation); returning `true` continues.
    pub fn integrate_observed<R: Rhs + ?Sized>(
        &mut self,
        rhs: &mut R,
        t0: f64,
        t1: f64,
        y: &mut [f64],
        opts: &IntegrateOpts,
        mut observer: Option<StepObserver<'_>>,
    ) -> Result<Solution, OdeError> {
        let n = y.len();
        assert_eq!(n, rhs.dim(), "state length must equal rhs.dim()");
        let tab: &Tableau = opts.method.tableau();
        self.ensure_capacity(tab.stages, n);
        self.err_prev = 1.0;

        let dir = (t1 - t0).signum();
        if dir == 0.0 || t0 == t1 {
            return Ok(Solution {
                t: t0,
                y: y.to_vec(),
                stats: StepStats::default(),
                trajectory: Vec::new(),
            });
        }

        let mut stats = StepStats::default();
        let flops_rhs = rhs.flops_per_eval();
        // stage-combination flops: per step, sum over stage rows of 2n per
        // coefficient + final combination 2·stages·n twice (y and err).
        let comb_flops = (tab.stages * (tab.stages - 1) + 4 * tab.stages) as u64 * n as u64;

        let mut t = t0;
        let mut trajectory = Vec::new();

        // first derivative
        rhs.eval(t, y, &mut self.k[0]);
        stats.rhs_evals += 1;
        stats.rhs_flops += flops_rhs;

        if opts.record_trajectory {
            trajectory.push(DenseSample {
                t,
                y: y.to_vec(),
                dydt: self.k[0].clone(),
            });
        }

        // automatic initial step: classic h0 = 0.01 * |y|/|y'| heuristic
        let mut h = match opts.h0 {
            Some(h0) => h0.abs() * dir,
            None => {
                let ynorm = weighted_norm(y, y, opts);
                let dnorm = weighted_norm(&self.k[0], y, opts);
                let h_guess = if dnorm > 1e-10 {
                    0.01 * ynorm.max(1.0) / dnorm
                } else {
                    1e-6
                };
                (h_guess.min(opts.h_max).max(opts.h_min) * dir).min((t1 - t0).abs() * dir)
            }
        };

        let order = tab.order as f64;
        let alpha = 0.7 / order;
        let beta = 0.4 / order;
        let mut fsal_valid = true; // k[0] holds f(t, y)

        loop {
            if stats.accepted + stats.rejected >= opts.max_steps {
                return Err(OdeError::TooManySteps { t });
            }
            // clamp to the endpoint
            if (t + h - t1) * dir > 0.0 {
                h = t1 - t;
            }
            if h.abs() < opts.h_min {
                return Err(OdeError::StepSizeTooSmall { t, h });
            }

            if !fsal_valid {
                rhs.eval(t, y, &mut self.k[0]);
                stats.rhs_evals += 1;
                stats.rhs_flops += flops_rhs;
                fsal_valid = true;
            }

            // stages: ytmp accumulates a_is·k_s one stage row at a time
            // (zero coefficients skipped), then becomes y + h·acc
            for i in 1..tab.stages {
                self.ytmp.fill(0.0);
                for (s, &a) in tab.row(i).iter().enumerate() {
                    if a != 0.0 {
                        axpy(&mut self.ytmp, a, &self.k[s]);
                    }
                }
                for (yt, &yj) in self.ytmp.iter_mut().zip(y.iter()) {
                    *yt = yj + h * *yt;
                }
                let ti = t + tab.c[i] * h;
                // split borrow: k[i] vs earlier rows already read
                let ki = &mut self.k[i];
                rhs.eval(ti, &self.ytmp, ki);
                stats.rhs_evals += 1;
                stats.rhs_flops += flops_rhs;
            }

            // combine: the same sweep with b into ynew and b_err into yerr
            self.ynew.fill(0.0);
            self.yerr.fill(0.0);
            for (s, ks) in self.k[..tab.stages].iter().enumerate() {
                if tab.b[s] != 0.0 {
                    axpy(&mut self.ynew, tab.b[s], ks);
                }
                if tab.b_err[s] != 0.0 {
                    axpy(&mut self.yerr, tab.b_err[s], ks);
                }
            }
            stats.stepper_flops += comb_flops;

            // finish both combinations and take the weighted RMS error
            // norm in one j-ascending pass
            let mut errsum = 0.0;
            let mut finite = true;
            for ((yn, ye), &yj) in self.ynew.iter_mut().zip(self.yerr.iter_mut()).zip(y.iter()) {
                *yn = yj + h * *yn;
                *ye *= h;
                let sc = opts.atol + opts.rtol * yj.abs().max(yn.abs());
                let e = *ye / sc;
                errsum += e * e;
                finite &= yn.is_finite();
            }
            let err = (errsum / n as f64).sqrt();

            if !finite || !err.is_finite() {
                // quarter the step and retry
                stats.rejected += 1;
                h *= 0.25;
                fsal_valid = false;
                if h.abs() < opts.h_min {
                    return Err(OdeError::NonFinite { t });
                }
                continue;
            }

            if err <= 1.0 {
                // accept
                t += h;
                y.copy_from_slice(&self.ynew);
                stats.accepted += 1;
                if let Some(obs) = observer.as_mut() {
                    if !obs(t, y) {
                        return Err(OdeError::Aborted { t });
                    }
                }

                if tab.fsal {
                    // derivative at the new point is the last stage
                    let (first, rest) = self.k.split_at_mut(1);
                    first[0].copy_from_slice(&rest[tab.stages - 2]);
                    fsal_valid = true;
                } else {
                    fsal_valid = false;
                }

                if opts.record_trajectory {
                    if !fsal_valid {
                        rhs.eval(t, y, &mut self.k[0]);
                        stats.rhs_evals += 1;
                        stats.rhs_flops += flops_rhs;
                        fsal_valid = true;
                    }
                    trajectory.push(DenseSample {
                        t,
                        y: y.to_vec(),
                        dydt: self.k[0].clone(),
                    });
                }

                if (t - t1) * dir >= 0.0 {
                    return Ok(Solution {
                        t,
                        y: y.to_vec(),
                        stats,
                        trajectory,
                    });
                }

                // PI controller
                let err_clamped = err.max(1e-10);
                let fac = 0.9 * err_clamped.powf(-alpha) * self.err_prev.powf(beta);
                let fac = fac.clamp(0.2, 5.0);
                self.err_prev = err_clamped;
                h = (h * fac).clamp(-opts.h_max, opts.h_max);
                if h == 0.0 {
                    h = opts.h_min * dir;
                }
            } else {
                // reject
                stats.rejected += 1;
                let fac = (0.9 * err.powf(-alpha)).clamp(0.1, 0.9);
                h *= fac;
                fsal_valid = !tab.fsal || fsal_valid; // k[0] still valid at (t, y)
            }
        }
    }
}

/// `acc += a·x`, component by component.  Kept as a plain multiply and
/// add (no `mul_add`, no reassociation) so every component sums its
/// stage terms in the same order, to the same bits, on every target.
#[inline]
fn axpy(acc: &mut [f64], a: f64, x: &[f64]) {
    for (acc, &x) in acc.iter_mut().zip(x) {
        *acc += a * x;
    }
}

fn weighted_norm(v: &[f64], yref: &[f64], opts: &IntegrateOpts) -> f64 {
    let mut s = 0.0;
    for (vi, yi) in v.iter().zip(yref) {
        let sc = opts.atol + opts.rtol * yi.abs();
        let e = vi / sc;
        s += e * e;
    }
    (s / v.len() as f64).sqrt()
}

/// One-shot convenience wrapper around [`Integrator::integrate`].
pub fn integrate<R: Rhs + ?Sized>(
    rhs: &mut R,
    t0: f64,
    t1: f64,
    y: &mut [f64],
    opts: &IntegrateOpts,
) -> Result<Solution, OdeError> {
    Integrator::new().integrate(rhs, t0, t1, y, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_stats_helpers() {
        let s = StepStats {
            accepted: 90,
            rejected: 10,
            rhs_evals: 800,
            rhs_flops: 1000,
            stepper_flops: 200,
        };
        assert_eq!(s.total_steps(), 100);
        assert_eq!(s.acceptance_ratio(), 0.9);
        assert_eq!(s.total_flops(), 1200);
        let empty = StepStats::default();
        assert_eq!(empty.total_steps(), 0);
        assert_eq!(empty.acceptance_ratio(), 1.0);
    }

    struct Decay;
    impl Rhs for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn eval(&mut self, _t: f64, y: &[f64], dydt: &mut [f64]) {
            dydt[0] = -y[0];
        }
    }

    struct Oscillator;
    impl Rhs for Oscillator {
        fn dim(&self) -> usize {
            2
        }
        fn eval(&mut self, _t: f64, y: &[f64], dydt: &mut [f64]) {
            dydt[0] = y[1];
            dydt[1] = -y[0];
        }
    }

    #[test]
    fn decay_all_methods() {
        for m in Method::ALL {
            let mut y = [1.0];
            let opts = IntegrateOpts {
                rtol: 1e-10,
                atol: 1e-14,
                method: m,
                ..Default::default()
            };
            let sol = integrate(&mut Decay, 0.0, 5.0, &mut y, &opts).unwrap();
            assert!(
                (y[0] - (-5.0f64).exp()).abs() < 1e-9,
                "{m:?}: y = {}, steps = {}",
                y[0],
                sol.stats.accepted
            );
        }
    }

    #[test]
    fn oscillator_energy_conserved() {
        let mut y = [1.0, 0.0];
        let opts = IntegrateOpts {
            rtol: 1e-11,
            atol: 1e-13,
            ..Default::default()
        };
        integrate(
            &mut Oscillator,
            0.0,
            20.0 * std::f64::consts::PI,
            &mut y,
            &opts,
        )
        .unwrap();
        let e = y[0] * y[0] + y[1] * y[1];
        assert!((e - 1.0).abs() < 1e-8, "energy drift: {e}");
        assert!((y[0] - 1.0).abs() < 1e-7, "phase error: {}", y[0]);
    }

    #[test]
    fn backward_integration() {
        let mut y = [(-3.0f64).exp()];
        let opts = IntegrateOpts::default();
        integrate(&mut Decay, 3.0, 0.0, &mut y, &opts).unwrap();
        assert!((y[0] - 1.0).abs() < 1e-7, "backward: {}", y[0]);
    }

    #[test]
    fn verner_is_sixth_order() {
        // Fixed-tolerance proxy: halving rtol by 2^6 should roughly halve
        // step size; instead verify global error scaling with forced h via
        // h_max on a smooth problem.
        let errs: Vec<f64> = [0.2, 0.1]
            .iter()
            .map(|&hmax| {
                let mut y = [1.0, 0.0];
                let opts = IntegrateOpts {
                    rtol: 1e-14,
                    atol: 1e-16,
                    h0: Some(hmax),
                    h_max: hmax,
                    method: Method::Verner65,
                    ..Default::default()
                };
                // rtol tiny → controller would shrink; instead integrate with
                // wide-open tolerance so h stays at h_max:
                let opts = IntegrateOpts {
                    rtol: 1e3,
                    atol: 1e3,
                    ..opts
                };
                integrate(&mut Oscillator, 0.0, 4.0, &mut y, &opts).unwrap();
                ((y[0] - 4.0f64.cos()).powi(2) + (y[1] + 4.0f64.sin()).powi(2)).sqrt()
            })
            .collect();
        let rate = (errs[0] / errs[1]).log2();
        assert!(
            rate > 5.4 && rate < 7.0,
            "observed order {rate}, errors {errs:?}"
        );
    }

    #[test]
    fn dopri_is_fifth_order() {
        let errs: Vec<f64> = [0.2, 0.1]
            .iter()
            .map(|&hmax| {
                let mut y = [1.0, 0.0];
                let opts = IntegrateOpts {
                    rtol: 1e3,
                    atol: 1e3,
                    h0: Some(hmax),
                    h_max: hmax,
                    method: Method::DormandPrince54,
                    ..Default::default()
                };
                integrate(&mut Oscillator, 0.0, 4.0, &mut y, &opts).unwrap();
                ((y[0] - 4.0f64.cos()).powi(2) + (y[1] + 4.0f64.sin()).powi(2)).sqrt()
            })
            .collect();
        let rate = (errs[0] / errs[1]).log2();
        assert!(rate > 4.4 && rate < 6.0, "observed order {rate}");
    }

    #[test]
    fn tolerance_controls_error() {
        let mut errors = Vec::new();
        for rtol in [1e-4, 1e-7, 1e-10] {
            let mut y = [1.0, 0.0];
            let opts = IntegrateOpts {
                rtol,
                atol: rtol * 1e-3,
                ..Default::default()
            };
            integrate(&mut Oscillator, 0.0, 10.0, &mut y, &opts).unwrap();
            errors.push((y[0] - 10.0f64.cos()).abs());
        }
        assert!(errors[0] > errors[2], "errors not decreasing: {errors:?}");
        assert!(errors[2] < 1e-8);
    }

    #[test]
    fn stats_are_plausible() {
        let mut y = [1.0];
        let opts = IntegrateOpts::default();
        let sol = integrate(&mut Decay, 0.0, 1.0, &mut y, &opts).unwrap();
        assert!(sol.stats.accepted > 0);
        assert!(sol.stats.rhs_evals >= sol.stats.accepted * 7);
        assert!(sol.stats.stepper_flops > 0);
    }

    #[test]
    fn trajectory_recording_and_sampling() {
        let mut y = [1.0];
        let opts = IntegrateOpts {
            record_trajectory: true,
            rtol: 1e-10,
            atol: 1e-13,
            ..Default::default()
        };
        let sol = integrate(&mut Decay, 0.0, 2.0, &mut y, &opts).unwrap();
        assert!(sol.trajectory.len() >= 3);
        let mut out = [0.0];
        for &t in &[0.0, 0.5, 1.37, 2.0] {
            sol.sample(t, &mut out);
            assert!(
                (out[0] - (-t).exp()).abs() < 1e-6,
                "sample({t}) = {}, expect {}",
                out[0],
                (-t).exp()
            );
        }
    }

    #[test]
    fn observer_fires_once_per_accepted_step_and_changes_nothing() {
        let opts = IntegrateOpts::default();
        let mut y = [1.0];
        let mut n = 0usize;
        let mut t_last = 0.0;
        let mut obs = |t: f64, y_seen: &[f64]| {
            n += 1;
            assert!(t > t_last, "observer times must advance: {t} vs {t_last}");
            assert!(y_seen.len() == 1 && y_seen[0].is_finite());
            t_last = t;
            true
        };
        let sol = Integrator::new()
            .integrate_observed(&mut Decay, 0.0, 2.0, &mut y, &opts, Some(&mut obs))
            .unwrap();
        assert_eq!(n, sol.stats.accepted);
        assert_eq!(t_last, sol.t, "last observed time is the final time");
        // bit-identical to the unobserved path
        let mut y2 = [1.0];
        let sol2 = integrate(&mut Decay, 0.0, 2.0, &mut y2, &opts).unwrap();
        assert_eq!(y[0].to_bits(), y2[0].to_bits());
        assert_eq!(sol.stats.accepted, sol2.stats.accepted);
    }

    #[test]
    fn observer_returning_false_aborts_the_integration() {
        let opts = IntegrateOpts::default();
        let mut y = [1.0];
        let mut n = 0usize;
        let mut obs = |_t: f64, _y: &[f64]| {
            n += 1;
            n < 3
        };
        let r = Integrator::new().integrate_observed(
            &mut Decay,
            0.0,
            2.0,
            &mut y,
            &opts,
            Some(&mut obs),
        );
        assert!(matches!(r, Err(OdeError::Aborted { .. })), "got {r:?}");
        assert_eq!(n, 3, "observer stops being called after the abort");
    }

    #[test]
    fn zero_length_integration() {
        let mut y = [4.0];
        let sol = integrate(&mut Decay, 1.0, 1.0, &mut y, &IntegrateOpts::default()).unwrap();
        assert_eq!(sol.y[0], 4.0);
        assert_eq!(sol.stats.accepted, 0);
    }

    #[test]
    fn max_steps_error() {
        let opts = IntegrateOpts {
            max_steps: 3,
            ..Default::default()
        };
        let mut y = [1.0, 0.0];
        let r = integrate(&mut Oscillator, 0.0, 1000.0, &mut y, &opts);
        assert!(matches!(r, Err(OdeError::TooManySteps { .. })));
    }

    #[test]
    fn stiff_problem_reports_small_step_or_succeeds_slowly() {
        // Very stiff linear problem: y' = -1e8 (y - cos t). An explicit
        // method must take tiny steps; with a loose step budget it errors.
        struct Stiff;
        impl Rhs for Stiff {
            fn dim(&self) -> usize {
                1
            }
            fn eval(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
                dydt[0] = -1e8 * (y[0] - t.cos());
            }
        }
        let opts = IntegrateOpts {
            max_steps: 2000,
            ..Default::default()
        };
        let mut y = [1.5];
        let r = integrate(&mut Stiff, 0.0, 1.0, &mut y, &opts);
        assert!(r.is_err(), "explicit RK should not finish in 2000 steps");
    }

    #[test]
    fn integrator_reuse_between_systems() {
        let mut integ = Integrator::new();
        let mut y1 = [1.0];
        integ
            .integrate(&mut Decay, 0.0, 1.0, &mut y1, &IntegrateOpts::default())
            .unwrap();
        let mut y2 = [1.0, 0.0];
        integ
            .integrate(
                &mut Oscillator,
                0.0,
                1.0,
                &mut y2,
                &IntegrateOpts::default(),
            )
            .unwrap();
        assert!((y1[0] - (-1.0f64).exp()).abs() < 1e-6);
        assert!((y2[0] - 1.0f64.cos()).abs() < 1e-6);
    }
}
