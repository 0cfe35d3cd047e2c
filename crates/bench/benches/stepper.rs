//! Microbenchmark of the Runge–Kutta stage algebra: one Verner 6(5)
//! (DVERK) step on states of 128, 1024 and 4096 components.  The RHS is
//! a trivial linear decay (one multiply per component), so nearly all
//! of the time is the stepper building stage states and combining the
//! propagated and error solutions — the part of a DVERK step that is
//! not the physics.  `rhs_eval` is the companion bench for the RHS side.
//!
//! ```text
//! cargo bench -p bench --bench stepper
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ode::{IntegrateOpts, Integrator, Method, Rhs};
use std::hint::black_box;

/// `y' = −y`: one flop per component, so the stage algebra dominates.
struct Decay(usize);

impl Rhs for Decay {
    fn dim(&self) -> usize {
        self.0
    }

    fn eval(&mut self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        for (d, &x) in dydt.iter_mut().zip(y) {
            *d = -x;
        }
    }

    fn flops_per_eval(&self) -> u64 {
        self.0 as u64
    }
}

fn bench_stepper(c: &mut Criterion) {
    const H: f64 = 0.01;
    // a fixed first step under wide-open tolerances: every call is
    // exactly one accepted step (8 RHS evaluations, no rejection)
    let opts = IntegrateOpts {
        method: Method::Verner65,
        rtol: 1e3,
        atol: 1e3,
        h0: Some(H),
        ..Default::default()
    };
    let mut group = c.benchmark_group("stepper");
    for n in [128usize, 1024, 4096] {
        let y0: Vec<f64> = (0..n).map(|i| 1e-3 / (1.0 + i as f64)).collect();
        let mut y = y0.clone();
        let mut rhs = Decay(n);
        let mut integ = Integrator::new();
        let id = format!("verner65_n{n}");
        let stats = integ
            .integrate(&mut rhs, 0.0, H, &mut y, &opts)
            .expect("one step")
            .stats;
        assert_eq!(
            (stats.accepted, stats.rejected),
            (1, 0),
            "{id}: not one step"
        );
        // machine-readable flop census of one step's stage algebra, in
        // the same `flops: <id> <count>` form as the rhs_eval bench
        println!("flops: {id} {}", stats.stepper_flops);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(id), &n, |b, _| {
            b.iter(|| {
                y.copy_from_slice(&y0);
                let sol = integ
                    .integrate(&mut rhs, black_box(0.0), H, &mut y, &opts)
                    .expect("one step");
                black_box(sol.stats.accepted)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_stepper
}
criterion_main!(benches);
