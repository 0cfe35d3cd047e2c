//! Bitwise oracle for the Runge–Kutta stage algebra.
//!
//! `Reference` below is the component-outer stepper `Integrator` ran
//! before its stage algebra became stage-outer axpy sweeps, kept
//! verbatim: for every component `j` it sums `a_is·k_s[j]` over the
//! stages `s` in ascending order, skipping zero coefficients inside the
//! loop.  The production [`Integrator`] must reproduce it to the bit —
//! the same state, the same step sequence, the same work counters — on
//! every method, in both directions, with and without an observer, and
//! through its rejection and failure paths.  Any later restructuring of
//! the stepper (structure-of-arrays layouts, batching several modes per
//! integrator) has to pass this suite unchanged; see the integrator's
//! arithmetic contract in DESIGN.md.

use ode::{
    DenseSample, IntegrateOpts, Integrator, Method, OdeError, Rhs, Solution, StepObserver,
    StepStats, Tableau,
};

// ---------------------------------------------------------------------
// The reference stepper (component-outer loops), verbatim.
// ---------------------------------------------------------------------

struct Reference {
    k: Vec<Vec<f64>>, // stage derivatives
    ytmp: Vec<f64>,   // stage state
    yerr: Vec<f64>,   // error estimate
    ynew: Vec<f64>,   // candidate state
    err_prev: f64,    // PI controller memory
}

impl Reference {
    fn new() -> Self {
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

    #[allow(clippy::needless_range_loop)] // RK stages index k[s][j] in lockstep
    fn integrate_observed<R: Rhs + ?Sized>(
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

            // stages
            for i in 1..tab.stages {
                let arow = tab.row(i);
                for j in 0..n {
                    let mut acc = 0.0;
                    for (s, &a) in arow.iter().enumerate() {
                        if a != 0.0 {
                            acc += a * self.k[s][j];
                        }
                    }
                    self.ytmp[j] = y[j] + h * acc;
                }
                let ti = t + tab.c[i] * h;
                // split borrow: k[i] vs earlier rows already read
                let ki = &mut self.k[i];
                rhs.eval(ti, &self.ytmp, ki);
                stats.rhs_evals += 1;
                stats.rhs_flops += flops_rhs;
            }

            // combine
            for j in 0..n {
                let mut ynj = 0.0;
                let mut errj = 0.0;
                for s in 0..tab.stages {
                    let ksj = self.k[s][j];
                    if tab.b[s] != 0.0 {
                        ynj += tab.b[s] * ksj;
                    }
                    if tab.b_err[s] != 0.0 {
                        errj += tab.b_err[s] * ksj;
                    }
                }
                self.ynew[j] = y[j] + h * ynj;
                self.yerr[j] = h * errj;
            }
            stats.stepper_flops += comb_flops;

            // weighted RMS error norm
            let mut errsum = 0.0;
            let mut finite = true;
            for j in 0..n {
                let sc = opts.atol + opts.rtol * y[j].abs().max(self.ynew[j].abs());
                let e = self.yerr[j] / sc;
                errsum += e * e;
                if !self.ynew[j].is_finite() {
                    finite = false;
                }
            }
            let err = (errsum / n as f64).sqrt();

            if !finite || !err.is_finite() {
                // halve and retry
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

fn weighted_norm(v: &[f64], yref: &[f64], opts: &IntegrateOpts) -> f64 {
    let mut s = 0.0;
    for (vi, yi) in v.iter().zip(yref) {
        let sc = opts.atol + opts.rtol * yi.abs();
        let e = vi / sc;
        s += e * e;
    }
    (s / v.len() as f64).sqrt()
}

// ---------------------------------------------------------------------
// Test systems
// ---------------------------------------------------------------------

/// A free-streaming multipole ladder with time-dependent damping — the
/// shape of LINGER's photon hierarchy:
/// `y_l' = k/(2l+1)·(l·y_{l-1} − (l+1)·y_{l+1}) − κ(t)·y_l`, truncated
/// with `y_{n} = 0`.  Neighbouring components are coupled, so an error
/// in any one stage row spreads through the whole state.
struct Ladder {
    n: usize,
    k: f64,
}

impl Rhs for Ladder {
    fn dim(&self) -> usize {
        self.n
    }

    fn eval(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        let kappa = 40.0 / (1.0 + t * t);
        let n = self.n;
        for l in 0..n {
            let lf = l as f64;
            let below = if l == 0 { 0.0 } else { lf * y[l - 1] };
            let above = if l + 1 == n {
                0.0
            } else {
                (lf + 1.0) * y[l + 1]
            };
            dydt[l] = self.k / (2.0 * lf + 1.0) * (below - above) - kappa * y[l];
        }
    }

    fn flops_per_eval(&self) -> u64 {
        9 * self.n as u64
    }
}

/// Initial ladder state: alternating signs decaying with `l`, with exact
/// zeros of both signs in the tail so zero products appear in every
/// stage sum.
fn ladder_state(n: usize) -> Vec<f64> {
    (0..n)
        .map(|l| match l % 7 {
            5 => 0.0,
            6 => -0.0,
            _ => (if l % 2 == 0 { 1.0 } else { -1.0 }) / (1.0 + l as f64),
        })
        .collect()
}

/// `y' = y²` from `y(0) = 1`: the solution blows up at `t = 1`, so the
/// integration ends in one of its failure paths.
struct BlowUp;

impl Rhs for BlowUp {
    fn dim(&self) -> usize {
        1
    }

    fn eval(&mut self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = y[0] * y[0];
    }
}

const LADDER: usize = 320;

/// Tight tolerances and an oversized first step, so the controller
/// rejects steps on the way in and at the damping's stability edge.
fn tight(method: Method) -> IntegrateOpts {
    IntegrateOpts {
        rtol: 1e-11,
        atol: 1e-14,
        h0: Some(2.0),
        method,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// What a successful integration returned, as bits: final time, final
/// state, work counters, and the recorded trajectory rows.
type Outcome = Result<(f64, Vec<u64>, StepStats, Vec<Vec<u64>>), OdeError>;

/// Everything one integration produced that the stepper's arithmetic
/// can influence.
#[derive(Debug)]
struct Run {
    result: Outcome,
    y: Vec<u64>,
    /// `(t, y)` bits at every accepted step, when observed.
    steps: Vec<(u64, Vec<u64>)>,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The reference and the integrator behind one call shape.
trait Stepper {
    fn run_observed(
        &mut self,
        rhs: &mut dyn Rhs,
        span: (f64, f64),
        y: &mut [f64],
        opts: &IntegrateOpts,
        observer: Option<StepObserver<'_>>,
    ) -> Result<Solution, OdeError>;
}

impl Stepper for Reference {
    fn run_observed(
        &mut self,
        rhs: &mut dyn Rhs,
        (t0, t1): (f64, f64),
        y: &mut [f64],
        opts: &IntegrateOpts,
        observer: Option<StepObserver<'_>>,
    ) -> Result<Solution, OdeError> {
        self.integrate_observed(rhs, t0, t1, y, opts, observer)
    }
}

impl Stepper for Integrator {
    fn run_observed(
        &mut self,
        rhs: &mut dyn Rhs,
        (t0, t1): (f64, f64),
        y: &mut [f64],
        opts: &IntegrateOpts,
        observer: Option<StepObserver<'_>>,
    ) -> Result<Solution, OdeError> {
        self.integrate_observed(rhs, t0, t1, y, opts, observer)
    }
}

fn run(
    integ: &mut dyn Stepper,
    rhs: &mut dyn Rhs,
    span: (f64, f64),
    y0: &[f64],
    opts: &IntegrateOpts,
    observe: bool,
) -> Run {
    let mut y = y0.to_vec();
    let mut steps = Vec::new();
    let mut obs = |t: f64, y: &[f64]| {
        steps.push((t.to_bits(), bits(y)));
        true
    };
    let observer: Option<StepObserver<'_>> = if observe { Some(&mut obs) } else { None };
    let result = integ
        .run_observed(rhs, span, &mut y, opts, observer)
        .map(|sol| {
            let traj = sol
                .trajectory
                .iter()
                .map(|s| {
                    let mut row = vec![s.t.to_bits()];
                    row.extend(bits(&s.y));
                    row.extend(bits(&s.dydt));
                    row
                })
                .collect();
            (sol.t, bits(&sol.y), sol.stats, traj)
        });
    Run {
        result,
        y: bits(&y),
        steps,
    }
}

/// Every field of two work counters, named so a new field fails to
/// compile here until it is compared too.
fn assert_stats_eq(a: &StepStats, b: &StepStats, what: &str) {
    let StepStats {
        accepted,
        rejected,
        rhs_evals,
        rhs_flops,
        stepper_flops,
    } = *a;
    assert_eq!(accepted, b.accepted, "{what}: accepted");
    assert_eq!(rejected, b.rejected, "{what}: rejected");
    assert_eq!(rhs_evals, b.rhs_evals, "{what}: rhs_evals");
    assert_eq!(rhs_flops, b.rhs_flops, "{what}: rhs_flops");
    assert_eq!(stepper_flops, b.stepper_flops, "{what}: stepper_flops");
}

/// Assert the two runs agree to the bit, returning the shared counters
/// of a successful run.
fn assert_same(want: &Run, got: &Run, what: &str) -> Option<StepStats> {
    assert_eq!(got.y, want.y, "{what}: final state bits");
    assert_eq!(
        got.steps.len(),
        want.steps.len(),
        "{what}: observed step count"
    );
    for (i, (g, w)) in got.steps.iter().zip(&want.steps).enumerate() {
        assert_eq!(g.0, w.0, "{what}: time of accepted step {i}");
        assert_eq!(g.1, w.1, "{what}: state bits at accepted step {i}");
    }
    match (&want.result, &got.result) {
        (Ok((wt, wy, ws, wtraj)), Ok((gt, gy, gs, gtraj))) => {
            assert_eq!(gt.to_bits(), wt.to_bits(), "{what}: final time");
            assert_eq!(gy, wy, "{what}: solution state bits");
            assert_stats_eq(ws, gs, what);
            assert_eq!(gtraj, wtraj, "{what}: trajectory bits");
            Some(*gs)
        }
        (Err(we), Err(ge)) => {
            assert_eq!(ge, we, "{what}: error");
            None
        }
        (w, g) => panic!("{what}: reference gave {w:?}, integrator gave {g:?}"),
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn ladder_matches_reference_bitwise_for_every_method_and_direction() {
    // one workspace each across every case, as a worker reuses its
    // integrator across modes: buffers shrink and grow between methods
    let mut reference = Reference::new();
    let mut integrator = Integrator::new();
    let y0 = ladder_state(LADDER);
    for method in Method::ALL {
        for (dir, span) in [("forward", (0.0, 3.0)), ("backward", (3.0, 1.5))] {
            for observe in [false, true] {
                let what = format!("{method:?} {dir} observed={observe}");
                let opts = tight(method);
                let mut rhs = Ladder { n: LADDER, k: 25.0 };
                let want = run(&mut reference, &mut rhs, span, &y0, &opts, observe);
                let got = run(&mut integrator, &mut rhs, span, &y0, &opts, observe);
                let stats = assert_same(&want, &got, &what).expect("ladder integrates");
                assert!(stats.accepted > 10, "{what}: too few steps to mean much");
                assert!(stats.rejected > 0, "{what}: no rejection exercised");
                if observe {
                    assert_eq!(got.steps.len(), stats.accepted, "{what}");
                }
            }
        }
    }
}

#[test]
fn recorded_trajectories_match_reference_bitwise() {
    let y0 = ladder_state(LADDER);
    for method in Method::ALL {
        let opts = IntegrateOpts {
            record_trajectory: true,
            ..tight(method)
        };
        let mut rhs = Ladder { n: LADDER, k: 25.0 };
        let want = run(
            &mut Reference::new(),
            &mut rhs,
            (0.0, 2.0),
            &y0,
            &opts,
            false,
        );
        let got = run(
            &mut Integrator::new(),
            &mut rhs,
            (0.0, 2.0),
            &y0,
            &opts,
            false,
        );
        assert_same(&want, &got, &format!("{method:?} trajectory"));
        assert!(matches!(&got.result, Ok((_, _, _, traj)) if traj.len() > 10));
    }
}

#[test]
fn automatic_first_step_matches_reference_bitwise() {
    let y0 = ladder_state(LADDER);
    for method in Method::ALL {
        let opts = IntegrateOpts {
            h0: None,
            ..tight(method)
        };
        let mut rhs = Ladder { n: LADDER, k: 25.0 };
        let want = run(
            &mut Reference::new(),
            &mut rhs,
            (0.0, 1.0),
            &y0,
            &opts,
            true,
        );
        let got = run(
            &mut Integrator::new(),
            &mut rhs,
            (0.0, 1.0),
            &y0,
            &opts,
            true,
        );
        assert_same(&want, &got, &format!("{method:?} automatic h0"));
    }
}

#[test]
fn failure_paths_match_reference() {
    for method in Method::ALL {
        // finite-time blow-up: the step collapses or the state overflows
        let opts = IntegrateOpts {
            method,
            ..Default::default()
        };
        let want = run(
            &mut Reference::new(),
            &mut BlowUp,
            (0.0, 2.0),
            &[1.0],
            &opts,
            true,
        );
        let got = run(
            &mut Integrator::new(),
            &mut BlowUp,
            (0.0, 2.0),
            &[1.0],
            &opts,
            true,
        );
        assert_same(&want, &got, &format!("{method:?} blow-up"));
        assert!(got.result.is_err(), "{method:?}: blow-up must fail");

        // step budget exhausted mid-ladder
        let opts = IntegrateOpts {
            max_steps: 25,
            ..tight(method)
        };
        let y0 = ladder_state(LADDER);
        let mut rhs = Ladder { n: LADDER, k: 25.0 };
        let want = run(
            &mut Reference::new(),
            &mut rhs,
            (0.0, 3.0),
            &y0,
            &opts,
            true,
        );
        let got = run(
            &mut Integrator::new(),
            &mut rhs,
            (0.0, 3.0),
            &y0,
            &opts,
            true,
        );
        assert_same(&want, &got, &format!("{method:?} step budget"));
        assert!(matches!(got.result, Err(OdeError::TooManySteps { .. })));
    }
}

#[test]
fn observer_abort_matches_reference() {
    let y0 = ladder_state(LADDER);
    let opts = tight(Method::Verner65);
    let mut runs = Vec::new();
    for use_reference in [true, false] {
        let mut rhs = Ladder { n: LADDER, k: 25.0 };
        let mut y = y0.clone();
        let mut seen = 0usize;
        let mut obs = |_t: f64, _y: &[f64]| {
            seen += 1;
            seen < 7
        };
        let mut integ: Box<dyn Stepper> = if use_reference {
            Box::new(Reference::new())
        } else {
            Box::new(Integrator::new())
        };
        let r = integ.run_observed(&mut rhs, (0.0, 3.0), &mut y, &opts, Some(&mut obs));
        runs.push((r.map(|s| s.t), bits(&y)));
    }
    assert!(matches!(runs[0].0, Err(OdeError::Aborted { .. })));
    assert_eq!(runs[0], runs[1]);
}
