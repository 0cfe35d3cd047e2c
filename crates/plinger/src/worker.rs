//! The worker subroutine (`kidsub` in Appendix A).

use std::time::{Duration, Instant};

use background::Background;
use boltzmann::evolve_mode_scratch;
use msgpass::wrappers::*;
use msgpass::Transport;
use ode::Integrator;
use recomb::ThermoHistory;
use telemetry::{SpanEvent, SpanRecorder};

use crate::error::FarmError;
use crate::protocol::{
    cosmo_hash, job_hash, RunSpec, TAG_ASSIGN, TAG_CANCEL, TAG_DATA, TAG_FAIL, TAG_HEADER,
    TAG_HEARTBEAT, TAG_INIT, TAG_NEWJOB, TAG_PREFETCH, TAG_REQUEST, TAG_STATS, TAG_STOP,
};

/// How many accepted integrator steps pass between heartbeat-clock
/// checks (checking `Instant::now` every step would be pure overhead).
const HEARTBEAT_CHECK_STEPS: usize = 64;

/// Minimum wall-clock spacing between two heartbeats from one worker.
const HEARTBEAT_MIN_INTERVAL: Duration = Duration::from_millis(100);

/// A scripted worker misbehaviour, driven by the farm's fault plan.
/// Real deployments pass `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Return silently (no goodbye, no stats) when the next assignment
    /// arrives after `after_modes` completed modes — a dead thread/node.
    Vanish {
        /// Completed modes before vanishing.
        after_modes: usize,
    },
    /// Go silent for `stall` on the next assignment after `after_modes`
    /// completed modes, then vanish — a hung worker that heartbeat
    /// timeouts must catch.
    Stall {
        /// Completed modes before stalling.
        after_modes: usize,
        /// How long to hang before vanishing.
        stall: Duration,
    },
    /// Report mode `ik` as failed (tag 8) instead of integrating it.
    FailMode {
        /// The poisoned mode index.
        ik: usize,
    },
}

/// Statistics a worker reports for one job when the master releases
/// it, shipped as the tag-7 payload (10 reals; see the `protocol`
/// module docs for the wire layout).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStats {
    /// Modes completed.
    pub modes: usize,
    /// Seconds spent inside mode integrations (busy time).
    pub busy_seconds: f64,
    /// Total seconds between the job opening and its release.
    pub total_seconds: f64,
    /// Bytes sent back to the master (header + data payloads).
    pub bytes_sent: usize,
    /// Integrator steps accepted across all modes.
    pub steps_accepted: usize,
    /// Integrator steps rejected across all modes.
    pub steps_rejected: usize,
    /// Right-hand-side evaluations across all modes.
    pub rhs_evals: usize,
    /// Bytes received from the master (job open + assignments).
    pub bytes_received: usize,
    /// Background/thermo cache rebuilds this job (1 when the job's
    /// cosmology hash differed from the cached one and the physics
    /// tables were rebuilt, 0 on a warm-cache job).
    pub ctx_rebuilds: usize,
    /// Context builds that happened *off* the job's critical path: the
    /// worker rebuilt its tables while parked, answering a tag-13
    /// prefetch hint between jobs, and the build is attributed to the
    /// next job it serves.  A prefetched job therefore typically shows
    /// `ctx_rebuilds == 0, prefetch_builds == 1` — same work, but
    /// overlapped with the previous job's tail instead of serialized in
    /// front of this one.
    pub prefetch_builds: usize,
}

impl WorkerStats {
    /// Encode as the tag-7 payload.
    pub fn to_wire(&self) -> [f64; 10] {
        [
            self.modes as f64,
            self.busy_seconds,
            self.total_seconds,
            self.bytes_sent as f64,
            self.steps_accepted as f64,
            self.steps_rejected as f64,
            self.rhs_evals as f64,
            self.bytes_received as f64,
            self.ctx_rebuilds as f64,
            self.prefetch_builds as f64,
        ]
    }

    /// Decode a tag-7 payload: exactly the 10 reals [`Self::to_wire`]
    /// sends.  Returns `None` for any other length and for payloads
    /// containing NaN, non-finite, or negative values — a garbled stats
    /// message must not silently become a plausible-looking report.
    pub fn from_wire(v: &[f64]) -> Option<Self> {
        let v: &[f64; 10] = v.try_into().ok()?;
        if v.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return None;
        }
        Some(Self {
            modes: v[0] as usize,
            busy_seconds: v[1],
            total_seconds: v[2],
            bytes_sent: v[3] as usize,
            steps_accepted: v[4] as usize,
            steps_rejected: v[5] as usize,
            rhs_evals: v[6] as usize,
            bytes_received: v[7] as usize,
            ctx_rebuilds: v[8] as usize,
            prefetch_builds: v[9] as usize,
        })
    }

    /// Field-wise accumulate `other` into `self` — a pooled worker's
    /// whole-session totals are the sum of its per-job reports.
    pub fn absorb(&mut self, other: &WorkerStats) {
        self.modes += other.modes;
        self.busy_seconds += other.busy_seconds;
        self.total_seconds += other.total_seconds;
        self.bytes_sent += other.bytes_sent;
        self.steps_accepted += other.steps_accepted;
        self.steps_rejected += other.steps_rejected;
        self.rhs_evals += other.rhs_evals;
        self.bytes_received += other.bytes_received;
        self.ctx_rebuilds += other.ctx_rebuilds;
        self.prefetch_builds += other.prefetch_builds;
    }
}

/// Heartbeat emission state, carried across assignments and across
/// jobs — the ~100 ms spacing is a per-rank property, not a per-job
/// one.
struct Heartbeat {
    last: Instant,
    seq: f64,
}

impl Heartbeat {
    fn new() -> Self {
        Self {
            last: Instant::now(),
            seq: 0.0,
        }
    }
}

/// Serve tag-3 assignments until the job is released (any tag other
/// than 3 or 6), integrating each mode and answering with a tag-4/5
/// pair or a tag-8 failure.  The releasing message's payload is
/// consumed (and counted into `stats.bytes_received`).
///
/// Returns `Ok(false)` when the session ends here: a scripted
/// [`WorkerFault`] says to vanish, or a tag-6 stop arrived mid-job (a
/// pool shutting down after a job that ended without releasing this
/// rank).  The caller must then return without a goodbye.
/// `modes_done` counts completed modes across the whole worker lifetime
/// (fault triggers key on it), while `stats` is the per-job ledger.
#[allow(clippy::too_many_arguments)]
fn serve_assignments<T: Transport>(
    t: &mut T,
    mastid: msgpass::Rank,
    spec: &RunSpec,
    bg: &Background,
    thermo: &ThermoHistory,
    fault: Option<WorkerFault>,
    modes_done: &mut usize,
    stats: &mut WorkerStats,
    integ: &mut Integrator,
    hb: &mut Heartbeat,
    rec: &mut SpanRecorder,
    buf: &mut Vec<f64>,
) -> Result<bool, FarmError> {
    let cfg = spec.mode_config();
    // the same request identity the master stamps on its spans — both
    // ends derive it from the spec wire bits, so no extra protocol
    let job = telemetry::log::job_hex(job_hash(spec));
    loop {
        // receive from master: next ik or a release message
        let t_wait = Instant::now();
        let tag = mychecktid(t, mastid)?;
        let n = myrecvreal(t, buf, tag, mastid)?;
        stats.bytes_received += n * 8;
        rec.record(
            "wait",
            "worker",
            t_wait,
            Instant::now(),
            &[("job", job.clone())],
        );
        if tag != TAG_ASSIGN {
            return Ok(tag != TAG_STOP);
        }
        // a tag-3 assignment carries one or more mode indices (a
        // chunk); work through them in assignment order, answering
        // each with a header+data pair or a tag-8 failure before
        // touching the next — the master strikes them off one by one
        let iks: Vec<usize> = buf.iter().map(|&v| v as usize).collect();
        for ik in iks {
            if ik >= spec.ks.len() {
                return Err(FarmError::Protocol {
                    rank: t.rank(),
                    detail: format!("assignment ik={ik} outside the k-grid"),
                });
            }
            let k = spec.ks[ik];
            // fault checks run per *mode*, not per assignment, so a fault
            // can strike mid-chunk (the recovery tests depend on this)
            match fault {
                Some(WorkerFault::Vanish { after_modes }) if *modes_done >= after_modes => {
                    // fault injection: vanish without a goodbye
                    return Ok(false);
                }
                Some(WorkerFault::Stall { after_modes, stall }) if *modes_done >= after_modes => {
                    // fault injection: hang silently, then vanish — the
                    // master's heartbeat timeout must catch this
                    std::thread::sleep(stall);
                    return Ok(false);
                }
                Some(WorkerFault::FailMode { ik: bad }) if bad == ik => {
                    // fault injection: report the mode as failed
                    mysendreal(t, &[ik as f64, k], TAG_FAIL, mastid)?;
                    continue;
                }
                _ => {}
            }
            let t_mode = Instant::now();
            let mut cancel_seen = false;
            let result = {
                let cancel = &mut cancel_seen;
                let mut steps_since = 0usize;
                let mut observer = || {
                    steps_since += 1;
                    if steps_since >= HEARTBEAT_CHECK_STEPS {
                        steps_since = 0;
                        // cancel poll: a pending tag-12 from the master
                        // aborts this mode (and the rest of the chunk)
                        // mid-integration; probe errors are ignored — a
                        // dead master surfaces on the next real send
                        if let Ok(Some(_)) =
                            t.probe_timeout(Some(mastid), Some(TAG_CANCEL), Duration::ZERO)
                        {
                            *cancel = true;
                            return false;
                        }
                        if hb.last.elapsed() >= HEARTBEAT_MIN_INTERVAL {
                            hb.seq += 1.0;
                            // best-effort: not counted in bytes_sent, and a
                            // dead master will surface on the next real send
                            let _ = t.send(mastid, TAG_HEARTBEAT, &[hb.seq]);
                            hb.last = Instant::now();
                        }
                    }
                    true
                };
                evolve_mode_scratch(bg, thermo, k, &cfg, Some(&mut observer), integ)
            };
            if cancel_seen {
                // consume the cancel frame, abandon the remaining chunk,
                // and release like any other terminating tag — the caller
                // sends its stats and parks
                let n = myrecvreal(t, buf, TAG_CANCEL, mastid)?;
                stats.bytes_received += n * 8;
                rec.record(
                    "mode",
                    "worker",
                    t_mode,
                    Instant::now(),
                    &[
                        ("ik", ik.to_string()),
                        ("cancelled", "true".to_string()),
                        ("job", job.clone()),
                    ],
                );
                stats.busy_seconds += t_mode.elapsed().as_secs_f64();
                return Ok(true);
            }
            match result {
                Ok(out) => {
                    rec.record(
                        "mode",
                        "worker",
                        t_mode,
                        Instant::now(),
                        &[
                            ("ik", ik.to_string()),
                            ("k", format!("{k:.6e}")),
                            ("job", job.clone()),
                        ],
                    );
                    stats.busy_seconds += t_mode.elapsed().as_secs_f64();
                    stats.modes += 1;
                    *modes_done += 1;
                    stats.steps_accepted += out.stats.accepted;
                    stats.steps_rejected += out.stats.rejected;
                    stats.rhs_evals += out.stats.rhs_evals;
                    // send results to master: header (tag 4) then data (tag 5)
                    let (header, payload) = out.to_wire(ik);
                    stats.bytes_sent += (header.len() + payload.len()) * 8;
                    mysendreal(t, &header, TAG_HEADER, mastid)?;
                    mysendreal(t, &payload, TAG_DATA, mastid)?;
                }
                Err(_) => {
                    rec.record(
                        "mode",
                        "worker",
                        t_mode,
                        Instant::now(),
                        &[
                            ("ik", ik.to_string()),
                            ("failed", "true".to_string()),
                            ("job", job.clone()),
                        ],
                    );
                    stats.busy_seconds += t_mode.elapsed().as_secs_f64();
                    // report the failure and go back to waiting: a
                    // fail-fast master answers with the stop, a requeueing
                    // master with the next assignment
                    mysendreal(t, &[ik as f64, k], TAG_FAIL, mastid)?;
                }
            }
        }
    }
}

/// The warm physics tables a persistent worker keeps between jobs,
/// keyed by the canonical cosmology hash of the job that built them.
struct PhysicsCache {
    hash: u64,
    bg: Background,
    thermo: ThermoHistory,
}

/// Span events a resident worker keeps: its timeline is a ring of this
/// many events (the flight recorder's bound), so a worker serving jobs
/// for the life of a service holds a fixed amount of trace, not one
/// more span per mode forever.  Evictions are counted in
/// [`PoolWorkerOutcome::spans_dropped`].
pub const WORKER_SPAN_CAPACITY: usize = 1024;

/// What one persistent worker accumulated over its whole pool lifetime.
#[derive(Debug, Default)]
pub struct PoolWorkerOutcome {
    /// Jobs served to completion (each answered with a tag-7 report).
    pub jobs: usize,
    /// Whole-lifetime statistics: the per-job reports summed.
    pub stats: WorkerStats,
    /// Local wall-clock spans on one timeline (`mode`, `wait`, and
    /// `build_ctx` events): the latest [`WORKER_SPAN_CAPACITY`] of them.
    pub spans: Vec<SpanEvent>,
    /// Earlier spans evicted from the timeline to respect its bound.
    pub spans_dropped: u64,
}

impl PoolWorkerOutcome {
    fn with_spans(mut self, rec: SpanRecorder) -> Self {
        self.spans_dropped = rec.dropped();
        self.spans = rec.into_events();
        self
    }
}

/// The worker session (`kidsub` of Appendix A): serve jobs until the
/// master sends a final tag-6 stop.
///
/// Every farm runs this session — a one-job [`crate::Farm`] as much as
/// a long-lived [`crate::FarmPool`].  It parks between jobs holding its
/// [`Background`]/[`ThermoHistory`] tables, its integrator scratch, and
/// its heartbeat clock, and:
///
/// * treats tag 10 (`NewJob`) and tag 1 (`Init`) identically as a job
///   start — a rank respawned mid-job is re-initialised with tag 1;
/// * rebuilds the physics tables **only when the job's canonical
///   cosmology hash differs** from the cached one, recording a
///   `build_ctx` span and setting [`WorkerStats::ctx_rebuilds`] for the
///   job, so cache reuse is visible in the run report;
/// * reports a failed mode integration with tag 8 (ik, k) instead of
///   dying, and keeps serving assignments;
/// * answers the per-job release (tag 11, or a tag-12 cancel) with that
///   job's own tag-7 stats — fresh counters every job, so idle/imbalance
///   accounting never bleeds across jobs;
/// * consumes and ignores stale traffic between jobs (e.g. an
///   assignment addressed to this rank's previous incarnation that was
///   already requeued elsewhere);
/// * on a tag-6 stop, exits without a reply: the per-job stats already
///   went out with each release.
///
/// `epoch` anchors this worker's span timestamps; the farm passes one
/// epoch to every rank so the per-rank tracks align in a trace viewer.
/// The worker records `mode` spans (one per integration, with `ik` and
/// `k` arguments), `wait` spans (blocked on the master between one
/// result and the next assignment), and `build_ctx`/`prefetch_ctx`
/// spans (physics-table builds), keeping the latest
/// [`WORKER_SPAN_CAPACITY`] of them.  During each integration it emits
/// tag-9 heartbeats between DVERK step batches, at most one per
/// `HEARTBEAT_MIN_INTERVAL` (100 ms); heartbeat sends are best-effort
/// and excluded from [`WorkerStats::bytes_sent`], which accounts result
/// traffic only.
pub fn worker_pool_session<T: Transport>(
    t: &mut T,
    fault: Option<WorkerFault>,
    epoch: Instant,
) -> Result<PoolWorkerOutcome, FarmError> {
    let (mytid, mastid) = initpass(t);
    let mut buf = Vec::new();
    let mut rec = SpanRecorder::bounded(epoch, 0, mytid as u64, WORKER_SPAN_CAPACITY);
    let mut out = PoolWorkerOutcome::default();
    let mut cache: Option<PhysicsCache> = None;
    let mut integ = Integrator::new();
    let mut hb = Heartbeat::new();
    let mut modes_done = 0usize;
    // context builds answered from tag-13 hints while parked, waiting
    // to be attributed to the next job's stats
    let mut pending_prefetch_builds = 0usize;

    loop {
        let tag = mychecktid(t, mastid)?;
        if tag != TAG_INIT && tag != TAG_NEWJOB {
            let n = myrecvreal(t, &mut buf, tag, mastid)?;
            if tag == TAG_STOP {
                return Ok(out.with_spans(rec));
            }
            if tag == TAG_PREFETCH {
                // a hint, not a job: warm the physics cache for the
                // announced cosmology and park again.  A malformed
                // payload is ignored — prefetch must never be able to
                // kill a healthy worker.
                if let Ok(spec) = RunSpec::decode(&buf[..n]) {
                    let hash = cosmo_hash(&spec.cosmo);
                    if cache.as_ref().map(|c| c.hash) != Some(hash) {
                        let t_build = Instant::now();
                        let bg = Background::new(spec.cosmo.clone());
                        let thermo = ThermoHistory::new(&bg);
                        rec.record(
                            "prefetch_ctx",
                            "worker",
                            t_build,
                            Instant::now(),
                            &[
                                ("cosmo_hash", format!("{hash:016x}")),
                                ("job", telemetry::log::job_hex(job_hash(&spec))),
                            ],
                        );
                        cache = Some(PhysicsCache { hash, bg, thermo });
                        pending_prefetch_builds += 1;
                    }
                }
                continue;
            }
            // stale traffic for a previous incarnation of this rank
            // (its work was already requeued): consume and ignore
            continue;
        }

        // job start: tag 10 (job open) or tag 1 (respawn re-init)
        let n = myrecvreal(t, &mut buf, tag, mastid)?;
        let mut stats = WorkerStats {
            bytes_received: n * 8,
            prefetch_builds: std::mem::take(&mut pending_prefetch_builds),
            ..WorkerStats::default()
        };
        let t_start = Instant::now();
        let spec = RunSpec::decode(&buf)?;
        let hash = cosmo_hash(&spec.cosmo);
        if cache.as_ref().map(|c| c.hash) != Some(hash) {
            let t_build = Instant::now();
            let bg = Background::new(spec.cosmo.clone());
            let thermo = ThermoHistory::new(&bg);
            rec.record(
                "build_ctx",
                "worker",
                t_build,
                Instant::now(),
                &[
                    ("cosmo_hash", format!("{hash:016x}")),
                    ("job", telemetry::log::job_hex(job_hash(&spec))),
                ],
            );
            cache = Some(PhysicsCache { hash, bg, thermo });
            stats.ctx_rebuilds = 1;
        }
        let Some(pc) = cache.as_ref() else {
            return Err(FarmError::Protocol {
                rank: t.rank(),
                detail: "physics cache missing after job init".to_string(),
            });
        };

        mysendreal(t, &[0.0], TAG_REQUEST, mastid)?;
        let released = serve_assignments(
            t,
            mastid,
            &spec,
            &pc.bg,
            &pc.thermo,
            fault,
            &mut modes_done,
            &mut stats,
            &mut integ,
            &mut hb,
            &mut rec,
            &mut buf,
        )?;
        if !released {
            // scripted vanish/stall, or a stop mid-job: end the session
            // without the goodbye
            out.stats.absorb(&stats);
            return Ok(out.with_spans(rec));
        }
        stats.total_seconds = t_start.elapsed().as_secs_f64();
        mysendreal(t, &stats.to_wire(), TAG_STATS, mastid)?;
        out.jobs += 1;
        out.stats.absorb(&stats);
        // park warm and wait for the next job
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boltzmann::Preset;

    #[test]
    fn stop_ends_the_session_without_a_reply() {
        use msgpass::channel::ChannelWorld;
        // idle, or where a job's release should be (a master that
        // abandoned the job): either way tag 6 ends the session, and no
        // tag-7 goodbye follows it
        for mid_job in [false, true] {
            let mut eps = ChannelWorld::new(2);
            let mut wep = eps.pop().unwrap();
            let mut master = eps.pop().unwrap();
            let h = std::thread::spawn(move || worker_pool_session(&mut wep, None, Instant::now()));
            let mut buf = Vec::new();
            if mid_job {
                let mut spec = RunSpec::standard_cdm(vec![0.01]);
                spec.preset = Preset::Draft;
                master.send(1, TAG_NEWJOB, &spec.encode()).unwrap();
                master.recv(1, TAG_REQUEST, &mut buf).unwrap();
            }
            master.send(1, TAG_STOP, &[0.0]).unwrap();
            let out = h.join().unwrap().unwrap();
            assert_eq!(out.jobs, 0, "mid_job={mid_job}");
            let after = master.probe_timeout(None, None, Duration::from_millis(50));
            assert!(
                !matches!(after, Ok(Some(_))),
                "mid_job={mid_job}: reply after the stop: {after:?}"
            );
        }
    }

    #[test]
    fn stats_wire_roundtrip() {
        let s = WorkerStats {
            modes: 3,
            busy_seconds: 1.5,
            total_seconds: 2.0,
            bytes_sent: 4096,
            steps_accepted: 900,
            steps_rejected: 12,
            rhs_evals: 7300,
            bytes_received: 512,
            ctx_rebuilds: 1,
            prefetch_builds: 1,
        };
        assert_eq!(WorkerStats::from_wire(&s.to_wire()), Some(s));
        assert_eq!(WorkerStats::from_wire(&[1.0, 2.0]), None);
    }

    #[test]
    fn stats_rejects_garbage_payloads() {
        // NaN, infinities, and negatives must not decode
        let with = |i: usize, x: f64| {
            let mut v = [1.0; 10];
            v[i] = x;
            v
        };
        assert_eq!(
            WorkerStats::from_wire(&with(0, f64::NAN)),
            None,
            "NaN modes"
        );
        assert_eq!(
            WorkerStats::from_wire(&with(1, f64::INFINITY)),
            None,
            "infinite busy"
        );
        assert_eq!(
            WorkerStats::from_wire(&with(2, -2.0)),
            None,
            "negative total"
        );
        assert_eq!(
            WorkerStats::from_wire(&with(7, f64::NEG_INFINITY)),
            None,
            "non-finite bytes_received"
        );
        assert_eq!(
            WorkerStats::from_wire(&with(9, f64::NAN)),
            None,
            "NaN prefetch_builds"
        );
        // wrong geometry, including the retired 4-, 8- and 9-real shapes
        for n in [0, 4, 5, 8, 9, 11] {
            assert_eq!(WorkerStats::from_wire(&vec![1.0; n]), None, "{n} reals");
        }
    }
}
