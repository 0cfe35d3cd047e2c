//! `los_cl` and `hierarchy_cl`: seeded cosmologies through a warm pool
//! to an assembled `C_l`, one spectrum at a time.

use std::time::Instant;

use background::Background;
use boltzmann::{ModeOutput, SpectrumMethod};
use msgpass::channel::ChannelWorld;
use plinger::{FarmPool, FarmReport, JobControl, RunSpec, SchedulePolicy, TAG_HEARTBEAT};
use recomb::ThermoHistory;
use spectra::{angular_power_spectrum, los_spectrum, PrimordialSpectrum};

use crate::check;
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::workload::{Cosmologies, Rng, Workload, WORKERS};
use crate::Outcome;

/// Count metrics are totals over this many leading spectra of the
/// seeded stream, so they repeat exactly for a seed however many
/// spectra fit in the timed window.
pub const COUNT_WINDOW: usize = 3;

pub const POLICY: SchedulePolicy = SchedulePolicy::LargestFirst;

/// `l(l+1)C_l` for `l = 2..=l_max` of a finished job.
pub fn band_power(w: Workload, spec: &RunSpec, outputs: &[ModeOutput]) -> Vec<f64> {
    let prim = PrimordialSpectrum::unit(spec.cosmo.n_s);
    let cl = match spec.method {
        SpectrumMethod::LineOfSight => los_spectrum(outputs, &prim, w.l_max()),
        SpectrumMethod::FullHierarchy => angular_power_spectrum(outputs, &prim, w.l_max()),
    };
    (2..=w.l_max())
        .map(|l| (l * (l + 1)) as f64 * cl.cl[l])
        .collect()
}

/// Run one spectrum's job through the workload's pool entry point.
pub fn run_job(
    w: Workload,
    pool: &mut FarmPool<ChannelWorld>,
    spec: &RunSpec,
) -> Result<FarmReport, String> {
    let rep = match w {
        Workload::LosCl => pool.session(POLICY).run(spec),
        _ => pool.run_job_with(spec, POLICY, &JobControl::default()),
    };
    rep.map_err(|e| format!("pool job failed: {e}"))
}

/// Work counters of one job, summed over its modes and workers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub ctx_rebuilds: u64,
    pub prefetch_builds: u64,
    pub rhs_evals: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub rhs_flops: u64,
    pub stepper_flops: u64,
    pub bytes: u64,
    pub messages: u64,
}

impl Counts {
    pub fn add_modes(&mut self, outputs: &[ModeOutput]) {
        for o in outputs {
            self.rhs_evals += o.stats.rhs_evals as u64;
            self.accepted += o.stats.accepted as u64;
            self.rejected += o.stats.rejected as u64;
            self.rhs_flops += o.stats.rhs_flops;
            self.stepper_flops += o.stats.stepper_flops;
        }
    }

    /// Counters of one farm report.  Traffic is read off the master's
    /// endpoint alone (sent plus received): every message has the master
    /// at one end, and its counters are settled when the report is cut,
    /// while a worker's last send can land on either side of the job's
    /// snapshot.  Heartbeats are left out: they are sent on a timer, so
    /// their number is not a property of the work.
    pub fn add_report(&mut self, rep: &FarmReport) {
        self.add_modes(&rep.outputs);
        for s in &rep.worker_stats {
            self.ctx_rebuilds += s.ctx_rebuilds as u64;
            self.prefetch_builds += s.prefetch_builds as u64;
        }
        if let Some(m) = rep.telemetry.comm.first() {
            let hb = TAG_HEARTBEAT as usize;
            self.messages += m.total_sent() + m.total_recv() - m.sent_count[hb] - m.recv_count[hb];
            self.bytes +=
                m.total_sent_bytes() + m.total_recv_bytes() - m.sent_bytes[hb] - m.recv_bytes[hb];
        }
    }

    pub fn report(&self, m: &mut Metrics) {
        m.count("ctx.rebuilds", self.ctx_rebuilds);
        m.count("ctx.prefetch_builds", self.prefetch_builds);
        m.count("evolve.rhs_evals", self.rhs_evals);
        m.count("evolve.steps_accepted", self.accepted);
        m.count("evolve.steps_rejected", self.rejected);
        m.put("evolve.rhs_gflop", self.rhs_flops as f64 / 1e9, 1);
        m.put("evolve.stepper_gflop", self.stepper_flops as f64 / 1e9, 1);
        m.count("farm.bytes", self.bytes);
        m.count("farm.messages", self.messages);
    }
}

/// Farm-level readings of one job whose public call took `call_s`.
#[derive(Debug, Default, Clone)]
pub struct JobSample {
    pub call_s: f64,
    pub busy_s: f64,
    pub mode_max_s: f64,
    pub flops: f64,
    pub rebuilt: bool,
}

impl JobSample {
    pub fn of(rep: &FarmReport, call_s: f64) -> Self {
        Self {
            call_s,
            busy_s: rep.total_cpu_seconds(),
            mode_max_s: rep
                .outputs
                .iter()
                .map(|o| o.cpu_seconds)
                .fold(0.0, f64::max),
            flops: rep.total_flops() as f64,
            rebuilt: rep.worker_stats.iter().any(|s| s.ctx_rebuilds > 0),
        }
    }

    pub fn idle_s(&self) -> f64 {
        WORKERS as f64 * self.call_s - self.busy_s
    }

    pub fn efficiency(&self) -> f64 {
        self.busy_s / (WORKERS as f64 * self.call_s)
    }
}

/// Serial replay of one spectrum's inputs: each layer's self time with
/// no farm around it.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub ctx_s: f64,
    pub evolve_s: f64,
    pub table_s: Option<f64>,
    pub project_s: Option<f64>,
}

/// Replay `spec` serially, checking every farm mode against its serial
/// evolution bit for bit.
pub fn replay(
    spec: &RunSpec,
    outputs: &[ModeOutput],
    los_l_max: Option<usize>,
    tr: &mut Tracer,
    req: u64,
) -> (Replay, Result<(), String>) {
    let root = tr.open("replay", req, None);
    let t0 = Instant::now();
    let bg = Background::new(spec.cosmo.clone());
    let thermo = ThermoHistory::new(&bg);
    let t1 = Instant::now();
    tr.record("ctx.build", req, root, t0, t1);
    let cfg = spec.mode_config();
    let mut integ = ode::Integrator::new();
    let mut verdict = Ok(());
    let mut serial = Vec::with_capacity(spec.ks.len());
    for &k in &spec.ks {
        match boltzmann::evolve_mode_scratch(&bg, &thermo, k, &cfg, None, &mut integ) {
            Ok(o) => serial.push(o),
            Err(e) => {
                verdict = Err(format!("serial evolve of k={k:e} failed: {e}"));
                break;
            }
        }
    }
    let t2 = Instant::now();
    tr.record("evolve.serial", req, root, t1, t2);
    if verdict.is_ok() {
        verdict = if serial.len() != outputs.len() {
            Err(format!(
                "{} farm modes vs {} serial",
                outputs.len(),
                serial.len()
            ))
        } else {
            serial
                .iter()
                .zip(outputs)
                .try_for_each(|(s, o)| check::same_mode(o, s))
        };
    }
    let mut r = Replay {
        ctx_s: (t1 - t0).as_secs_f64(),
        evolve_s: (t2 - t1).as_secs_f64(),
        ..Replay::default()
    };
    if let Some(l_max) = los_l_max {
        let x_max = outputs
            .iter()
            .filter_map(|o| o.sources.as_ref().map(|s| o.k * (s.tau_obs - s.tau[0])))
            .fold(0.0f64, f64::max)
            + 10.0;
        let t3 = Instant::now();
        let table = special::JlTable::build(l_max, x_max);
        let t4 = Instant::now();
        let nodes = spectra::los::node_multipoles(l_max);
        for o in outputs {
            std::hint::black_box(spectra::project_mode(o, &nodes, &table));
        }
        let t5 = Instant::now();
        tr.record("los.table", req, root, t3, t4);
        tr.record("los.project", req, root, t4, t5);
        r.table_s = Some((t4 - t3).as_secs_f64());
        r.project_s = Some((t5 - t4).as_secs_f64());
    }
    tr.close(root);
    (r, verdict)
}

/// A spectrum kept for the checks that run after the timed window.
struct Pending {
    spec: RunSpec,
    mode: usize,
    out: ModeOutput,
    band: Vec<f64>,
}

/// The timed loop of a spectrum workload on a warm pool.
pub fn run(
    w: Workload,
    pool: &mut FarmPool<ChannelWorld>,
    seed: u64,
    seconds: f64,
    traced: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let base = w.anchor();
    let mut cosmos = Cosmologies::new(seed);
    let mut pick = Rng::new(seed, 2);
    let los = w == Workload::LosCl;

    let mut total = Vec::new();
    let mut post = Vec::new();
    let mut jobs: Vec<JobSample> = Vec::new();
    let mut replays: Vec<Replay> = Vec::new();
    let mut shares: [Vec<f64>; 4] = Default::default(); // ctx, evolve, los, farm
    let mut counts = Counts::default();
    let mut pending = Vec::new();

    let t_window = Instant::now();
    let mut n = 0usize;
    while n < COUNT_WINDOW || t_window.elapsed().as_secs_f64() < seconds {
        let spec = cosmos.single(&base);
        let mode = pick.below(spec.ks.len());
        let req = n as u64;
        n += 1;
        out.attempted += 1;
        let t0 = Instant::now();
        let rep = match run_job(w, pool, &spec) {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let t1 = Instant::now();
        if let Err(e) = check::outputs_complete(&spec, &rep.outputs) {
            out.fail(e);
            continue;
        }
        let band = band_power(w, &spec, &rep.outputs);
        let t2 = Instant::now();
        let root = tr.record("spectrum", req, None, t0, t2);
        tr.record("farm.job", req, root, t0, t1);
        tr.record(
            if los { "los.spectrum" } else { "cl.assemble" },
            req,
            root,
            t1,
            t2,
        );

        let job = JobSample::of(&rep, (t1 - t0).as_secs_f64());
        let spectrum_s = (t2 - t0).as_secs_f64();
        total.push(spectrum_s);
        post.push((t2 - t1).as_secs_f64());
        if n <= COUNT_WINDOW {
            counts.add_report(&rep);
        }
        if traced {
            let (r, verdict) = replay(&spec, &rep.outputs, los.then_some(w.l_max()), tr, req);
            if let Err(e) = verdict {
                out.fail(e);
            }
            let evolve_cp = job.busy_s / WORKERS as f64;
            let ctx_cp = if job.rebuilt { r.ctx_s } else { 0.0 };
            shares[0].push(ctx_cp / spectrum_s);
            shares[1].push(evolve_cp / spectrum_s);
            shares[2].push((t2 - t1).as_secs_f64() / spectrum_s);
            shares[3].push((job.call_s - evolve_cp - ctx_cp).max(0.0) / spectrum_s);
            replays.push(r);
        }
        jobs.push(job);
        pending.push(Pending {
            out: rep.outputs[mode].clone(),
            spec,
            mode,
            band,
        });
    }
    let window_s = t_window.elapsed().as_secs_f64();

    // checks, outside the timed window
    for p in &pending {
        let verdict = check::band_power_sane(&p.band).and_then(|()| {
            if traced {
                Ok(()) // the replay already compared every mode
            } else {
                check::mode_matches_serial(&p.spec, p.mode, &p.out)
            }
        });
        if let Err(e) = verdict {
            out.fail(e);
        }
    }

    if !traced {
        out.e2e.median("spectrum_s", &total);
        out.e2e
            .put("spectra_per_s", total.len() as f64 / window_s, total.len());
        return;
    }

    let m = &mut out.layer;
    let col = |f: &dyn Fn(&JobSample) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    let rcol =
        |f: &dyn Fn(&Replay) -> Option<f64>| replays.iter().filter_map(f).collect::<Vec<f64>>();
    m.median("ctx.build_s", &rcol(&|r| Some(r.ctx_s)));
    m.median("evolve.busy_s", &col(&|j| j.busy_s));
    m.median("evolve.mode_s.max", &col(&|j| j.mode_max_s));
    m.median("evolve.gflops", &col(&|j| j.flops / j.busy_s / 1e9));
    m.median("los.table_s", &rcol(&|r| r.table_s));
    m.median("los.project_s", &rcol(&|r| r.project_s));
    m.median(
        if los {
            "los.spectrum_s"
        } else {
            "cl.assemble_s"
        },
        &post,
    );
    m.median("farm.job_s", &col(&|j| j.call_s));
    m.median("farm.idle_s", &col(&|j| j.idle_s()));
    m.median("farm.efficiency", &col(&|j| j.efficiency()));
    let scaling: Vec<f64> = jobs
        .iter()
        .zip(&replays)
        .map(|(j, r)| r.evolve_s / (WORKERS as f64 * j.call_s))
        .collect();
    m.median("farm.scaling_eff", &scaling);
    counts.report(m);
    for (name, v) in ["share.ctx", "share.evolve", "share.los", "share.farm"]
        .into_iter()
        .zip(&shares)
    {
        m.median(name, v);
    }
    m.median("trace.spectrum_s", &total);
}
