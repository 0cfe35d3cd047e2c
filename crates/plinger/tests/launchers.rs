//! One pool, two launchers: the same warm-pool job sequence on worker
//! threads (`FarmPool<ChannelWorld>`) and on `--tcp-worker` child
//! processes (`TcpFarmPool`) must give bitwise-equal outputs, rebuild
//! the worker physics caches on exactly the same jobs, and keep each
//! launcher's comm-table shape.

use boltzmann::Preset;
use msgpass::channel::ChannelWorld;
use plinger::{FarmPool, FarmReport, RunSpec, SchedulePolicy, TcpFarmOptions, TcpFarmPool};
use std::path::PathBuf;

const WORKERS: usize = 2;

fn spec_of(ks: &[f64]) -> RunSpec {
    let mut spec = RunSpec::standard_cdm(ks.to_vec());
    spec.preset = Preset::Draft;
    spec
}

/// Jobs A, A, B: the repeat shares A's cosmology, B changes it.
fn jobs() -> Vec<RunSpec> {
    let a = spec_of(&[2.0e-4, 8.0e-4, 4.0e-4, 1.2e-3]);
    let mut b = spec_of(&[3.0e-4, 9.0e-4, 5.0e-4]);
    b.cosmo = background::CosmoParams::lcdm();
    vec![a.clone(), a, b]
}

fn rebuilds(rep: &FarmReport) -> usize {
    rep.worker_stats.iter().map(|w| w.ctx_rebuilds).sum()
}

#[test]
fn process_and_thread_launchers_serve_the_same_warm_jobs() {
    let jobs = jobs();

    let mut threads = FarmPool::<ChannelWorld>::start(WORKERS).expect("thread pool");
    let thread_reps: Vec<FarmReport> = jobs
        .iter()
        .map(|spec| {
            threads
                .run_job(spec, SchedulePolicy::LargestFirst)
                .expect("thread job")
        })
        .collect();
    assert_eq!(threads.shutdown().jobs, jobs.len());

    let exe = PathBuf::from(env!("CARGO_BIN_EXE_plinger"));
    let mut procs =
        TcpFarmPool::start(WORKERS, &exe, &TcpFarmOptions::default()).expect("process pool");
    let proc_reps: Vec<FarmReport> = jobs
        .iter()
        .map(|spec| {
            procs
                .run_job(spec, SchedulePolicy::LargestFirst)
                .expect("process job")
        })
        .collect();
    assert_eq!(procs.shutdown(), jobs.len());

    for (j, (t, p)) in thread_reps.iter().zip(&proc_reps).enumerate() {
        assert_eq!(t.outputs.len(), jobs[j].ks.len(), "job {j}");
        assert_eq!(p.outputs.len(), t.outputs.len(), "job {j}");
        for (a, b) in t.outputs.iter().zip(&p.outputs) {
            assert_eq!(a.k.to_bits(), b.k.to_bits(), "job {j}: grid order");
            assert_eq!(a.delta_c.to_bits(), b.delta_c.to_bits(), "job {j}");
            assert_eq!(a.psi.to_bits(), b.psi.to_bits(), "job {j}");
            assert_eq!(a.delta_t.len(), b.delta_t.len(), "job {j}");
            for (x, y) in a.delta_t.iter().zip(&b.delta_t) {
                assert_eq!(x.to_bits(), y.to_bits(), "job {j}: Θ_l");
            }
        }
        // each launcher keeps its comm-table shape: a row per endpoint
        // it can see
        assert_eq!(t.telemetry.comm.len(), WORKERS + 1, "job {j}: threads");
        assert_eq!(p.telemetry.comm.len(), 1, "job {j}: processes");
    }

    let thread_seq: Vec<usize> = thread_reps.iter().map(rebuilds).collect();
    let proc_seq: Vec<usize> = proc_reps.iter().map(rebuilds).collect();
    assert_eq!(thread_seq, proc_seq, "launchers rebuilt on different jobs");
    assert_eq!(thread_seq[1], 0, "the repeat of job A rebuilt its tables");
    assert_eq!(thread_seq, vec![WORKERS, 0, WORKERS]);
}
