//! `sweep_serve`: one closed-loop caller on an in-process
//! `SpectrumService`, mixing 3×2×2 sweeps with single requests.
//!
//! The stream is made of rounds with a fixed shape, and the timed
//! window ends on a round boundary, so the cache hit ratio is set by
//! the generator alone.  One round is a fresh sweep (12 shard misses)
//! followed by twelve single requests in the order of [`SINGLES`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use msgpass::channel::ChannelWorld;
use plinger::{
    decode_spectrum_body, run_ensemble, EnsembleOptions, EnsembleSpec, FarmPool, JobControl,
    RunSpec, SpectrumService,
};

use crate::check;
use crate::metrics::quantile;
use crate::spectrum::{replay, Counts, JobSample};
use crate::trace::Tracer;
use crate::workload::{Cosmologies, Rng, Workload, WORKERS};
use crate::Outcome;

/// The single requests of one round: `N` a new cosmology (a miss), `S`
/// a repeat of one of this round's shards, `R` a repeat of one of this
/// round's earlier `N` requests (both hits).
const SINGLES: &[u8; 12] = b"NNSNRSNNSRNS";

/// Shards per sweep: Ω_b × h × n_s.
const AXES: (usize, usize, usize) = (3, 2, 2);

/// Count metrics are totals over the first round.
const COUNT_ROUNDS: usize = 1;

/// A delivered miss, kept for the checks that run after the window.
struct Miss {
    spec: RunSpec,
    mode: usize,
    body: Arc<Vec<f64>>,
    /// Every mode was already compared in a serial replay.
    replayed: bool,
}

/// A delivered hit: its body must equal the body first served for the
/// key.
struct Hit {
    key: u64,
    body: Arc<Vec<f64>>,
}

fn cache_counts<W: msgpass::World>(svc: &SpectrumService<W>) -> (u64, u64) {
    (svc.cache().hits(), svc.cache().misses())
}

pub fn run(
    svc: &mut SpectrumService<ChannelWorld>,
    mut replay_pool: Option<&mut FarmPool<ChannelWorld>>,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let traced = replay_pool.is_some();
    let base = Workload::SweepServe.anchor();
    let mut cosmos = Cosmologies::new(seed);
    let mut gen = Rng::new(seed, 1);
    let mut pick = Rng::new(seed, 2);

    let mut miss_s = Vec::new();
    let mut miss_overhead_s = Vec::new();
    let mut hit_s = Vec::new();
    let mut gaps = Vec::new();
    let mut jobs: Vec<JobSample> = Vec::new();
    let mut ctx_s = Vec::new();
    let mut scaling = Vec::new();
    let mut shares: [Vec<f64>; 4] = Default::default(); // ctx, evolve, farm, service
    let mut counts = Counts::default();
    let mut first: HashMap<u64, Arc<Vec<f64>>> = HashMap::new();
    let mut misses: Vec<Miss> = Vec::new();
    let mut hits: Vec<Hit> = Vec::new();
    let mut sweeps: Vec<EnsembleSpec> = Vec::new();
    let mut cache_bytes = 0usize;
    let mut delivered = 0usize;
    let (hits0, misses0) = cache_counts(svc);

    let t_window = Instant::now();
    let mut round = 0usize;
    while round < COUNT_ROUNDS || t_window.elapsed().as_secs_f64() < seconds {
        let req0 = (round * (1 + SINGLES.len())) as u64;
        // the sweep: every shard is a new cosmology
        let ens = cosmos.sweep(&base, AXES.0, AXES.1, AXES.2);
        let n = ens.n_shards();
        let picks: Vec<usize> = (0..n)
            .map(|i| pick.below(ens.shard_spec(i).ks.len()))
            .collect();
        out.attempted += n as u64;
        let mut shard_bodies: Vec<Arc<Vec<f64>>> = Vec::with_capacity(n);
        let t0 = Instant::now();
        let mut last = t0;
        let mut stamps = Vec::with_capacity(n);
        let res = svc.handle_ensemble_with(&ens, &JobControl::default(), |r| {
            let now = Instant::now();
            stamps.push((last, now, r.cache_hit));
            last = now;
            shard_bodies.push(Arc::clone(&r.body));
            Ok(())
        });
        let t1 = Instant::now();
        let root = tr.record("request.sweep", req0, None, t0, t1);
        for &(a, b, _) in &stamps {
            tr.record("service.shard", req0, root, a, b);
        }
        if let Err(e) = res {
            out.failed += (n - shard_bodies.len()) as u64;
            out.note(format!("sweep failed: {e}"));
        }
        for (i, (body, &(a, b, cache_hit))) in shard_bodies.iter().zip(&stamps).enumerate() {
            gaps.push((b - a).as_secs_f64());
            delivered += 1;
            if cache_hit {
                out.fail("a fresh sweep shard was served from the cache".into());
                continue;
            }
            let key = ens.shard_hash(i);
            first.insert(key, Arc::clone(body));
            cache_bytes += body.len() * 8;
            misses.push(Miss {
                spec: ens.shard_spec(i),
                mode: picks[i],
                body: Arc::clone(body),
                replayed: false,
            });
        }
        if traced && round < COUNT_ROUNDS {
            // a ShardReply carries no FarmReport, so the counters of the
            // sweep's shard jobs come from replaying it through
            // run_ensemble on a second pool
            if let Some(pool) = replay_pool.as_deref_mut() {
                match run_ensemble(
                    pool,
                    &ens,
                    &EnsembleOptions::default(),
                    &JobControl::default(),
                ) {
                    Ok(rep) => rep
                        .results
                        .iter()
                        .for_each(|r| counts.add_report(&r.report)),
                    Err(e) => out.note(format!("sweep replay failed: {e}")),
                }
            }
        }

        let mut round_news: Vec<RunSpec> = Vec::new();
        for (j, &op) in SINGLES.iter().enumerate() {
            let req = req0 + 1 + j as u64;
            let spec = match op {
                b'N' => cosmos.single(&base),
                b'S' => ens.shard_spec(gen.below(n)),
                _ => round_news[gen.below(round_news.len())].clone(),
            };
            let mode = pick.below(spec.ks.len());
            out.attempted += 1;
            let t0 = Instant::now();
            let reply = svc.handle(&spec);
            let t1 = Instant::now();
            tr.record("service.handle", req, None, t0, t1);
            let reply = match reply {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("request failed: {e}"));
                    continue;
                }
            };
            delivered += 1;
            let latency = (t1 - t0).as_secs_f64();
            if op != b'N' {
                if !reply.cache_hit {
                    out.fail("a repeated request missed the cache".into());
                    continue;
                }
                hit_s.push(latency);
                hits.push(Hit {
                    key: reply.key,
                    body: reply.body,
                });
                continue;
            }
            let Some(rep) = reply.report.as_ref().filter(|_| !reply.cache_hit) else {
                out.fail("a new cosmology was served from the cache".into());
                continue;
            };
            miss_s.push(latency);
            miss_overhead_s.push(latency - rep.wall_seconds);
            let job = JobSample::of(rep, rep.wall_seconds);
            if round < COUNT_ROUNDS {
                counts.add_report(rep);
            }
            if traced {
                let (r, verdict) = replay(&spec, &rep.outputs, None, tr, req);
                if let Err(e) = verdict {
                    out.fail(e);
                }
                let evolve_cp = job.busy_s / WORKERS as f64;
                let ctx_cp = if job.rebuilt { r.ctx_s } else { 0.0 };
                shares[0].push(ctx_cp / latency);
                shares[1].push(evolve_cp / latency);
                shares[2].push((job.call_s - evolve_cp - ctx_cp).max(0.0) / latency);
                shares[3].push((latency - job.call_s) / latency);
                ctx_s.push(r.ctx_s);
                scaling.push(r.evolve_s / (WORKERS as f64 * job.call_s));
            }
            jobs.push(job);
            first.insert(reply.key, Arc::clone(&reply.body));
            cache_bytes += reply.body.len() * 8;
            misses.push(Miss {
                spec: spec.clone(),
                mode,
                body: reply.body,
                replayed: traced,
            });
            round_news.push(spec);
        }
        sweeps.push(ens);
        round += 1;
    }
    let window_s = t_window.elapsed().as_secs_f64();
    let (hits1, misses1) = cache_counts(svc);
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    let hit_ratio = (hits1 - hits0) as f64 / lookups as f64;

    // checks, outside the timed window
    for m in &misses {
        let verdict = decode_spectrum_body(&m.body).and_then(|(outputs, _)| {
            check::outputs_complete(&m.spec, &outputs)?;
            if m.replayed {
                Ok(())
            } else {
                check::mode_matches_serial(&m.spec, m.mode, &outputs[m.mode])
            }
        });
        if let Err(e) = verdict {
            out.fail(e);
        }
    }
    for h in &hits {
        match first.get(&h.key) {
            Some(want) => {
                if let Err(e) = check::same_body(&h.body, want) {
                    out.fail(e);
                }
            }
            None => out.fail("a hit for a key that was never served".into()),
        }
    }
    // every shard must be the single-request body for its cosmology
    for ens in &sweeps {
        for i in 0..ens.n_shards() {
            let verdict = match (
                svc.handle(&ens.shard_spec(i)),
                first.get(&ens.shard_hash(i)),
            ) {
                (Ok(r), Some(want)) if r.cache_hit => check::same_body(&r.body, want),
                (Ok(_), _) => {
                    Err("a shard's cosmology is not cached under its single-request key".into())
                }
                (Err(e), _) => Err(format!("single request for a shard failed: {e}")),
            };
            if let Err(e) = verdict {
                out.fail(e);
            }
        }
    }

    if !traced {
        out.e2e.median("spectrum_s", &miss_s);
        out.e2e
            .put("spectra_per_s", delivered as f64 / window_s, delivered);
        // the p90 needs at least ten samples beyond it
        if miss_s.len() >= 100 {
            out.extra
                .put("spectrum_s.p90", quantile(&miss_s, 0.9), miss_s.len());
        }
        out.extra.median("shard_s", &gaps);
        return;
    }

    let m = &mut out.layer;
    let col = |f: &dyn Fn(&JobSample) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    m.median("ctx.build_s", &ctx_s);
    m.median("evolve.busy_s", &col(&|j| j.busy_s));
    m.median("evolve.mode_s.max", &col(&|j| j.mode_max_s));
    m.median("evolve.gflops", &col(&|j| j.flops / j.busy_s / 1e9));
    m.median("farm.job_s", &col(&|j| j.call_s));
    m.median("farm.idle_s", &col(&|j| j.idle_s()));
    m.median("farm.efficiency", &col(&|j| j.efficiency()));
    m.median("farm.scaling_eff", &scaling);
    counts.report(m);
    m.median("service.hit_s", &hit_s);
    m.median("service.miss_overhead_s", &miss_overhead_s);
    m.put("service.hit_ratio", hit_ratio, lookups as usize);
    m.put("service.cache_mb", cache_bytes as f64 / 1e6, first.len());
    m.median("service.shard_s", &gaps);
    if miss_s.len() >= 100 {
        m.put("service.miss_p90_s", quantile(&miss_s, 0.9), miss_s.len());
    }
    for (name, v) in ["share.ctx", "share.evolve", "share.farm", "share.service"]
        .into_iter()
        .zip(&shares)
    {
        m.median(name, v);
    }
    m.median("trace.spectrum_s", &miss_s);
}
