//! The master subroutine (`parentsub` in Appendix A), hardened into a
//! session loop that survives worker death.
//!
//! The paper's listing drives the farm with a blocking `mycheckany`; a
//! worker that dies without a goodbye would park that master forever.
//! This version polls with [`Transport::probe_timeout`] and consults a
//! caller-supplied liveness watch between polls.  What happens when a
//! worker is lost is governed by [`RecoveryPolicy`]:
//!
//! * under [`RecoveryPolicy::FailFast`] any abnormal event — worker
//!   death, a tag-8 failure report, an unexpected tag, a malformed
//!   result — routes through one drain-and-stop shutdown that flushes
//!   tag-11 releases to all surviving workers and collects what
//!   statistics it can before returning the typed error;
//! * under [`RecoveryPolicy::Requeue`] the dead rank's in-flight mode
//!   goes back to the head of the work queue and is redistributed to
//!   survivors (state machine: *in-flight → requeued*, or *in-flight →
//!   quarantined* once the mode's attempt budget is spent), and the run
//!   finishes as long as one worker lives.
//!
//! Liveness has two sources: the watch callback (thread joins, process
//! exits, socket closes) and tag-9 heartbeats — a rank holding an
//! assignment that has been silent for `heartbeat_timeout` is declared
//! dead even if its thread still exists, which catches *hung* workers.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use boltzmann::ModeOutput;
use msgpass::wrappers::*;
use msgpass::{Rank, Transport};
use telemetry::{SpanEvent, SpanRecorder};

use telemetry::log::{self as tlog, Level};

use crate::error::{CancelReason, FarmError};
use crate::protocol::{
    job_hash, RunSpec, TAG_ASSIGN, TAG_CANCEL, TAG_DATA, TAG_FAIL, TAG_HEADER, TAG_HEARTBEAT,
    TAG_INIT, TAG_JOBDONE, TAG_NEWJOB, TAG_PREFETCH, TAG_REQUEST, TAG_STATS,
};
use crate::recovery::{FailedMode, RecoveryLog, RecoveryPolicy, WorkerEvent};
use crate::schedule::{SchedulePolicy, WorkQueue};
use crate::worker::WorkerStats;

/// Timing and recovery knobs of the master loop.
#[derive(Debug, Clone, Copy)]
pub struct MasterConfig {
    /// How long one bounded probe waits before re-checking liveness.
    pub poll: Duration,
    /// How long the drain phase waits for survivors' statistics (and the
    /// normal shutdown waits for stragglers) before giving up.
    pub drain_timeout: Duration,
    /// A rank holding an assignment that has sent nothing (result,
    /// request, or tag-9 heartbeat) for this long is declared dead.
    /// Workers heartbeat at ~100 ms intervals while integrating, so the
    /// default is generous by orders of magnitude.
    pub heartbeat_timeout: Duration,
    /// What to do when a worker is lost.
    pub recovery: RecoveryPolicy,
    /// Modes per tag-3 assignment.  `1` (the default) is the paper's
    /// one-at-a-time protocol; larger chunks amortize the
    /// request/assign round trip when modes are cheap.  A chunk is a
    /// *run* of the dispatch order, so largest-first remains
    /// largest-first across chunks; `0` is treated as `1`.
    pub chunk: usize,
}

impl Default for MasterConfig {
    fn default() -> Self {
        Self {
            poll: Duration::from_millis(25),
            drain_timeout: Duration::from_secs(5),
            heartbeat_timeout: Duration::from_secs(30),
            recovery: RecoveryPolicy::FailFast,
            chunk: 1,
        }
    }
}

/// External control of a running job: a wall-clock deadline and/or a
/// shared cancel flag, both optional.  The master checks it once per
/// poll interval; when either trigger fires it broadcasts tag-12
/// [`TAG_CANCEL`] to every live un-stopped rank, drains the session
/// (collecting statistics like any other shutdown), and returns
/// [`FarmError::Cancelled`].  The default is uncontrolled — the
/// historical run-to-completion behaviour.
#[derive(Clone, Copy, Default)]
pub struct JobControl<'a> {
    /// Abort the job once this instant passes.
    pub deadline: Option<Instant>,
    /// Abort the job once this flag reads `true`.
    pub cancel: Option<&'a AtomicBool>,
}

impl JobControl<'_> {
    /// Which trigger, if any, has fired.  An explicit cancel wins over
    /// a deadline when both have.
    pub fn triggered(&self) -> Option<CancelReason> {
        if self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return Some(CancelReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(CancelReason::DeadlineExceeded);
        }
        None
    }
}

/// A scripted worker fault the master schedules around, so that the
/// fault fires whatever the timing.  [`FaultPlan::DropWorker`] and
/// [`FaultPlan::StallWorker`] strike when their rank reaches the mode
/// after its `after_modes`-th — which it reaches only if it is handed
/// that many modes.  Without a hold, a peer that built its physics
/// tables first can drain a short queue and the fault never fires.  So
/// the master keeps `modes` modes in the queue for the scripted rank
/// until it has been handed them; the hold then lapses, as it does when
/// the rank dies or is replaced.  Only fault-injection runs carry one.
///
/// [`FaultPlan::DropWorker`]: crate::FaultPlan::DropWorker
/// [`FaultPlan::StallWorker`]: crate::FaultPlan::StallWorker
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultHold {
    /// The scripted rank.
    pub(crate) rank: Rank,
    /// Modes still to hand it, the one its fault strikes on included.
    pub(crate) modes: usize,
}

/// What the master accumulated over one farm run.
#[derive(Debug)]
pub struct MasterLedger {
    /// Finished modes, indexed like `spec.ks` (every slot filled on
    /// success; quarantined modes leave `None` holes).
    pub outputs: Vec<Option<ModeOutput>>,
    /// Wall-clock seconds of the master loop (job open → last release).
    pub wall_seconds: f64,
    /// Bytes received from workers (tags 4 + 5).
    pub bytes_received: usize,
    /// Completion order: `(ik, worker_rank)` in arrival order.
    pub completion_log: Vec<(usize, usize)>,
    /// Per-worker statistics in rank order (rank 1 first), collected
    /// from the tag-7 reports.
    pub worker_stats: Vec<WorkerStats>,
    /// Master-side wall-clock spans (`assign`, `collect`, `idle`, and
    /// `recover` events on track 0).  Empty when telemetry is disabled.
    pub spans: Vec<SpanEvent>,
    /// Seconds the master spent with nothing pending (the contiguous
    /// gaps between handled messages).
    pub idle_seconds: f64,
    /// Every recovery action taken (requeues, heartbeat misses,
    /// respawns, quarantined modes).  Clean on an undisturbed run.
    pub recovery: RecoveryLog,
}

/// Internal mutable state of one master session.
struct Session<'h> {
    queue: WorkQueue,
    ks: Vec<f64>,
    outputs: Vec<Option<ModeOutput>>,
    completion_log: Vec<(usize, usize)>,
    bytes_received: usize,
    /// Ranks the tag-11 release has been sent to.
    stopped: HashSet<Rank>,
    /// Statistics by worker index (rank − 1).
    stats: Vec<Option<WorkerStats>>,
    n_workers: usize,
    /// Recovery knobs (copied out of the config so helpers don't need
    /// the whole config threaded through).
    policy: RecoveryPolicy,
    /// Modes per tag-3 assignment (≥ 1; copied from the config).
    chunk: usize,
    /// Modes currently held by each worker (index = rank − 1), in the
    /// order they were assigned — the worker reports them back in this
    /// order, one result (or tag-8 failure) per mode.
    in_flight: Vec<Vec<usize>>,
    /// Ranks declared dead (watch report or heartbeat silence).
    dead: HashSet<Rank>,
    /// Last time each rank sent *anything* (index = rank − 1).
    last_seen: Vec<Instant>,
    /// Idle ranks held back from their stop because another worker still
    /// carries a mode that may yet be requeued (Requeue policy only).
    parked: HashSet<Rank>,
    /// Ranks that have asked for work this job.  Every live rank that
    /// has not keeps a chunk of the queue reserved (see `dispatch`).
    asked: HashSet<Rank>,
    /// The pool's scripted-fault hold, if any: more of the queue kept
    /// for one rank (see `dispatch`).  Updated in place, so it carries
    /// over to the pool's next job.
    hold: &'h mut Option<FaultHold>,
    /// Modes that exhausted their attempt budget.
    quarantined: HashSet<usize>,
    /// Counters for every recovery action.
    recovery: RecoveryLog,
    /// Master-side span timeline (track 0 of the trace).
    rec: SpanRecorder,
    /// Start of the current contiguous idle interval, if any.
    idle_since: Option<Instant>,
    /// Accumulated idle seconds.
    idle_seconds: f64,
    /// Encoded spec of the *next* job, appended as a tag-13 prefetch
    /// hint to each release so the worker warms the next job's physics
    /// tables while its peers finish this job's tail chunks.  `None`
    /// (the default) sends no hint.
    prefetch_wire: Option<Vec<f64>>,
    /// Canonical request identity ([`job_hash`] of the spec, rendered
    /// as 16 hex digits) — stamped on every span and log event this
    /// session records, so one request's trail is filterable
    /// end to end.
    job: String,
}

impl Session<'_> {
    fn ikdone(&self) -> usize {
        self.completion_log.len()
    }

    fn unfinished(&self) -> Vec<usize> {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(ik, o)| o.is_none().then_some(ik))
            .collect()
    }

    /// Every mode is either completed or quarantined.
    fn all_settled(&self) -> bool {
        self.ikdone() + self.quarantined.len() >= self.outputs.len()
    }

    /// Session exit condition.  Under FailFast this is exactly the
    /// historical one (all modes done, all workers stopped and
    /// reported); under Requeue a dead rank counts as resolved — it will
    /// never stop or report.
    fn finished(&self) -> bool {
        if !self.all_settled() {
            return false;
        }
        (1..=self.n_workers).all(|r| {
            (self.policy.recovers() && self.dead.contains(&r))
                || (self.stopped.contains(&r) && self.stats[r - 1].is_some())
        })
    }

    /// Close the current idle interval, if one is open, recording it as
    /// an `idle` span and adding it to the idle total.
    fn end_idle(&mut self) {
        if let Some(since) = self.idle_since.take() {
            let now = Instant::now();
            self.idle_seconds += now.duration_since(since).as_secs_f64();
            let job = self.job.clone();
            self.rec
                .record("idle", "master", since, now, &[("job", job)]);
        }
    }

    /// Reply to a ready worker: next assignment (a chunk of up to
    /// `self.chunk` modes in one tag-3 message), or release.  A worker
    /// still part-way through a chunk gets nothing — it is refilled
    /// only once its last in-flight mode resolves.  Under the Requeue
    /// policy a worker with no work it may take is *parked* (no reply
    /// yet) while other workers still carry modes that may come back to
    /// the queue, or a live rank that has not asked yet may still take
    /// the chunk kept for it.
    fn dispatch<T: Transport>(&mut self, t: &mut T, rank: Rank) -> Result<(), FarmError> {
        if !self.in_flight[rank - 1].is_empty() {
            return Ok(());
        }
        // keep a chunk for every live rank that has not asked yet, so a
        // worker that built its physics tables first cannot drain a
        // short queue before its peers ask at all; the job cannot end
        // before they ask anyway, so this costs at most one chunk-time
        let unasked = (1..=self.n_workers)
            .filter(|&r| r != rank && !self.asked.contains(&r) && !self.dead.contains(&r))
            .count();
        let mut reserved = unasked * self.chunk;
        if let Some(h) = (*self.hold).filter(|h| h.rank != rank && !self.dead.contains(&h.rank)) {
            // a scripted fault's rank also keeps its hold; an unasked
            // chunk already kept for it counts towards that
            let counted = if self.asked.contains(&h.rank) {
                0
            } else {
                self.chunk
            };
            reserved += h.modes.saturating_sub(counted);
        }
        let free = self.queue.len().saturating_sub(reserved);
        let iks = if free > 0 {
            self.queue.pop_chunk(self.chunk.min(free))
        } else {
            Vec::new()
        };
        if !iks.is_empty() {
            if let Some(h) = self.hold.as_mut().filter(|h| h.rank == rank) {
                h.modes = h.modes.saturating_sub(iks.len());
                if h.modes == 0 {
                    *self.hold = None;
                }
            }
            let t0 = Instant::now();
            let wire: Vec<f64> = iks.iter().map(|&ik| ik as f64).collect();
            mysendreal(t, &wire, TAG_ASSIGN, rank)?;
            self.in_flight[rank - 1] = iks;
            // the silence clock measures the worker against *this*
            // assignment; a long park before it must not count
            self.last_seen[rank - 1] = Instant::now();
            let iks_str = self.in_flight[rank - 1]
                .iter()
                .map(|ik| ik.to_string())
                .collect::<Vec<_>>()
                .join(",");
            self.rec.record(
                "assign",
                "master",
                t0,
                Instant::now(),
                &[
                    ("ik", iks_str),
                    ("worker", rank.to_string()),
                    ("job", self.job.clone()),
                ],
            );
        } else if self.policy.recovers() && !self.all_settled() {
            self.parked.insert(rank);
        } else {
            self.release(t, rank)?;
        }
        Ok(())
    }

    /// Send a rank its tag-11 release and, with a next-job hint set,
    /// follow it with a tag-13 prefetch so the worker warms the next
    /// job's physics tables while it parks.  The hint is best-effort: a
    /// rank that cannot take it is already being handled by the watch,
    /// and the next job re-announces its spec anyway.
    fn release<T: Transport>(&mut self, t: &mut T, rank: Rank) -> Result<(), FarmError> {
        mysendreal(t, &[0.0], TAG_JOBDONE, rank)?;
        self.stopped.insert(rank);
        if let Some(wire) = self.prefetch_wire.as_ref() {
            let _ = mysendreal(t, wire, TAG_PREFETCH, rank);
        }
        Ok(())
    }

    /// Strike one resolved mode off a rank's in-flight list (no-op if
    /// it was not held — e.g. already recovered through another path).
    fn resolve_in_flight(&mut self, rank: Rank, ik: usize) {
        let held = &mut self.in_flight[rank - 1];
        if let Some(pos) = held.iter().position(|&x| x == ik) {
            held.remove(pos);
        }
    }

    /// Take everything a lost rank was holding and requeue (or
    /// quarantine) it, front-of-queue, preserving the chunk's internal
    /// dispatch order.
    fn recover_chunk<T: Transport>(
        &mut self,
        t: &mut T,
        rank: Rank,
        reason: &str,
    ) -> Result<(), FarmError> {
        let chunk = std::mem::take(&mut self.in_flight[rank - 1]);
        // requeue back-to-front so requeue_front leaves the chunk's
        // first mode first in the queue
        for &ik in chunk.iter().rev() {
            self.requeue_or_quarantine(t, ik, reason)?;
        }
        Ok(())
    }

    /// Release every parked worker (called once all modes are
    /// settled).
    fn stop_parked<T: Transport>(&mut self, t: &mut T) -> Result<(), FarmError> {
        if self.parked.is_empty() {
            return Ok(());
        }
        let ranks: Vec<Rank> = self.parked.drain().collect();
        for rank in ranks {
            self.release(t, rank)?;
        }
        Ok(())
    }

    /// A mode came back without a result (its worker died, stalled, or
    /// reported failure): return it to the head of the queue if it still
    /// has attempt budget, else quarantine it.  Requeued work wakes any
    /// parked worker.
    fn requeue_or_quarantine<T: Transport>(
        &mut self,
        t: &mut T,
        ik: usize,
        reason: &str,
    ) -> Result<(), FarmError> {
        let t0 = Instant::now();
        let attempts = self.queue.attempts(ik);
        if attempts >= self.policy.max_attempts() {
            self.quarantined.insert(ik);
            self.recovery.failed_modes.push(FailedMode {
                ik,
                k: self.ks.get(ik).copied().unwrap_or(f64::NAN),
                attempts,
                reason: reason.to_string(),
            });
            self.rec.record(
                "recover",
                "master",
                t0,
                Instant::now(),
                &[
                    ("ik", ik.to_string()),
                    ("action", "quarantine".to_string()),
                    ("reason", reason.to_string()),
                    ("job", self.job.clone()),
                ],
            );
            tlog::log(
                Level::Error,
                "master",
                "mode_quarantined",
                &[
                    ("job", self.job.clone()),
                    ("ik", ik.to_string()),
                    ("attempts", attempts.to_string()),
                    ("reason", reason.to_string()),
                ],
            );
        } else {
            self.queue.requeue_front(ik);
            self.recovery.requeues += 1;
            self.rec.record(
                "recover",
                "master",
                t0,
                Instant::now(),
                &[
                    ("ik", ik.to_string()),
                    ("action", "requeue".to_string()),
                    ("reason", reason.to_string()),
                    ("job", self.job.clone()),
                ],
            );
            tlog::log(
                Level::Warn,
                "master",
                "chunk_requeue",
                &[
                    ("job", self.job.clone()),
                    ("ik", ik.to_string()),
                    ("reason", reason.to_string()),
                ],
            );
            let parked: Vec<Rank> = self.parked.drain().collect();
            for rank in parked {
                self.dispatch(t, rank)?;
            }
        }
        Ok(())
    }

    /// Drop the scripted-fault hold on `rank`: that incarnation is gone.
    fn release_hold(&mut self, rank: Rank) {
        if self.hold.is_some_and(|h| h.rank == rank) {
            *self.hold = None;
        }
    }

    /// Declare a rank dead and recover its in-flight mode (Requeue
    /// policy only).
    fn mark_dead<T: Transport>(
        &mut self,
        t: &mut T,
        rank: Rank,
        reason: &str,
    ) -> Result<(), FarmError> {
        if !self.dead.insert(rank) {
            return Ok(());
        }
        tlog::log(
            Level::Warn,
            "master",
            "worker_dead",
            &[
                ("job", self.job.clone()),
                ("worker", rank.to_string()),
                ("reason", reason.to_string()),
            ],
        );
        self.parked.remove(&rank);
        self.release_hold(rank);
        self.recover_chunk(t, rank, reason)?;
        // a rank that died before asking frees the chunk reserved for it
        let parked: Vec<Rank> = self.parked.drain().collect();
        for rank in parked {
            self.dispatch(t, rank)?;
        }
        Ok(())
    }

    /// Fold a batch of watch events into the session.  Returns
    /// `Ok(Some(rank))` when the FailFast policy demands the session
    /// abort with [`FarmError::WorkerLost`] for that rank.
    fn apply_events<T: Transport>(
        &mut self,
        t: &mut T,
        spec_wire: &[f64],
        events: Vec<WorkerEvent>,
    ) -> Result<Option<Rank>, FarmError> {
        for ev in events {
            match ev {
                WorkerEvent::Dead(rank) => {
                    if rank == 0 || rank > self.n_workers || self.dead.contains(&rank) {
                        continue;
                    }
                    if self.policy.recovers() {
                        self.mark_dead(t, rank, "worker lost")?;
                    } else if !self.stopped.contains(&rank) {
                        return Ok(Some(rank));
                    }
                    // FailFast + already stopped: the idle branch's
                    // missing-statistics check handles it (WorkerJoin).
                }
                WorkerEvent::Respawned(rank) => {
                    if rank == 0 || rank > self.n_workers {
                        continue;
                    }
                    let t0 = Instant::now();
                    self.dead.remove(&rank);
                    self.stopped.remove(&rank);
                    self.parked.remove(&rank);
                    // the replacement runs no scripted fault
                    self.release_hold(rank);
                    self.stats[rank - 1] = None;
                    // a watch that replaces a child reports Respawned
                    // without a Dead first; whatever the old incarnation
                    // was holding died with it
                    self.recover_chunk(t, rank, "worker respawned")?;
                    // the replacement must ask for work again
                    self.asked.remove(&rank);
                    self.last_seen[rank - 1] = Instant::now();
                    self.recovery.respawns += 1;
                    // the replacement missed the tag-10 job open; send it
                    // the spec as a tag-1 init, and it will answer with a
                    // tag-2 work request like any fresh worker
                    mysendreal(t, spec_wire, TAG_INIT, rank)?;
                    self.rec.record(
                        "recover",
                        "master",
                        t0,
                        Instant::now(),
                        &[
                            ("worker", rank.to_string()),
                            ("action", "respawn".to_string()),
                            ("job", self.job.clone()),
                        ],
                    );
                    tlog::log(
                        Level::Warn,
                        "master",
                        "worker_respawned",
                        &[("job", self.job.clone()), ("worker", rank.to_string())],
                    );
                }
            }
        }
        Ok(None)
    }

    /// Declare dead any live rank that holds an assignment but has been
    /// silent past the heartbeat timeout (Requeue policy only): workers
    /// heartbeat every ~100 ms while integrating, so prolonged silence
    /// means the worker is hung, not busy.
    fn scan_heartbeats<T: Transport>(
        &mut self,
        t: &mut T,
        timeout: Duration,
    ) -> Result<(), FarmError> {
        for rank in 1..=self.n_workers {
            if self.dead.contains(&rank) || self.stopped.contains(&rank) {
                continue;
            }
            if !self.in_flight[rank - 1].is_empty() && self.last_seen[rank - 1].elapsed() > timeout
            {
                self.recovery.heartbeat_misses += 1;
                tlog::log(
                    Level::Warn,
                    "master",
                    "heartbeat_miss",
                    &[("job", self.job.clone()), ("worker", rank.to_string())],
                );
                self.mark_dead(t, rank, "heartbeat timeout")?;
            }
        }
        Ok(())
    }

    fn record_stats(&mut self, rank: Rank, payload: &[f64]) -> Result<(), FarmError> {
        let ws = WorkerStats::from_wire(payload).ok_or_else(|| FarmError::Protocol {
            rank,
            detail: format!(
                "stats message must be 10 finite non-negative reals, got {} values",
                payload.len()
            ),
        })?;
        if let Some(slot) = self.stats.get_mut(rank.wrapping_sub(1)) {
            *slot = Some(ws);
        }
        Ok(())
    }

    /// Flush tag-11 releases to every worker not yet released, then
    /// drain pending messages (collecting statistics) until the deadline
    /// or until every live worker has reported.  Send errors are ignored: some of
    /// these workers may already be gone, and the point is to unblock
    /// the survivors.
    fn drain_and_stop<T: Transport>(
        &mut self,
        t: &mut T,
        cfg: &MasterConfig,
        watch: &mut dyn FnMut() -> Vec<WorkerEvent>,
    ) {
        for rank in 1..=self.n_workers {
            if !self.stopped.contains(&rank) {
                let _ = mysendreal(t, &[0.0], TAG_JOBDONE, rank);
                self.stopped.insert(rank);
            }
        }
        let deadline = Instant::now() + cfg.drain_timeout;
        let mut buf = Vec::new();
        while Instant::now() < deadline {
            let dead: HashSet<Rank> = watch()
                .into_iter()
                .filter_map(|e| match e {
                    WorkerEvent::Dead(r) => Some(r),
                    WorkerEvent::Respawned(_) => None,
                })
                .chain(self.dead.iter().copied())
                .collect();
            let expected = (1..=self.n_workers)
                .filter(|r| !dead.contains(r) && self.stats[r - 1].is_none())
                .count();
            if expected == 0 {
                break;
            }
            match t.probe_timeout(None, None, cfg.poll) {
                Ok(Some(env)) => {
                    if myrecvreal(t, &mut buf, env.tag, env.source).is_err() {
                        break;
                    }
                    if env.tag == TAG_STATS {
                        let _ = self.record_stats(env.source, &buf);
                    }
                }
                Ok(None) => continue,
                Err(_) => break,
            }
        }
    }

    /// Cooperatively cancel the job: tag-12 to every live un-stopped
    /// rank (integrating workers abort mid-chunk at their next observer
    /// poll; parked workers take it as their release), then the normal
    /// drain — stats are collected and workers park consistently for
    /// the next job.  Returns the error the session ends with.
    fn cancel_job<T: Transport>(
        &mut self,
        t: &mut T,
        cfg: &MasterConfig,
        watch: &mut dyn FnMut() -> Vec<WorkerEvent>,
        reason: CancelReason,
    ) -> FarmError {
        let unfinished = self.unfinished();
        tlog::log(
            Level::Warn,
            "master",
            "job_cancelled",
            &[
                ("job", self.job.clone()),
                ("reason", reason.to_string()),
                ("unfinished", unfinished.len().to_string()),
            ],
        );
        for rank in 1..=self.n_workers {
            if self.dead.contains(&rank) || self.stopped.contains(&rank) {
                continue;
            }
            // best-effort, like the drain's release sends: a rank that
            // cannot be reached is already being handled by the watch
            let _ = mysendreal(t, &[0.0], TAG_CANCEL, rank);
        }
        self.recovery.cancelled = true;
        self.drain_and_stop(t, cfg, watch);
        FarmError::Cancelled { reason, unfinished }
    }

    /// Collect tag-7 reports that were still in flight when the death
    /// report won the race against them (a worker that took its
    /// release, sent statistics, and exited can be seen dead by the
    /// watch before its last message is read).  Bounded by the drain timeout.
    fn sweep_stats<T: Transport>(&mut self, t: &mut T, cfg: &MasterConfig) {
        let deadline = Instant::now() + cfg.drain_timeout;
        let mut buf = Vec::new();
        while Instant::now() < deadline {
            let expected = (1..=self.n_workers)
                .filter(|&r| self.stopped.contains(&r) && self.stats[r - 1].is_none())
                .count();
            if expected == 0 {
                break;
            }
            match t.probe_timeout(None, None, cfg.poll) {
                Ok(Some(env)) => {
                    if myrecvreal(t, &mut buf, env.tag, env.source).is_err() {
                        break;
                    }
                    if env.tag == TAG_STATS {
                        let _ = self.record_stats(env.source, &buf);
                    }
                }
                Ok(None) => continue,
                Err(_) => break,
            }
        }
    }

    fn into_ledger(mut self, t0: Instant) -> MasterLedger {
        self.end_idle();
        MasterLedger {
            outputs: self.outputs,
            wall_seconds: t0.elapsed().as_secs_f64(),
            bytes_received: self.bytes_received,
            completion_log: self.completion_log,
            worker_stats: self
                .stats
                .into_iter()
                .map(Option::unwrap_or_default)
                .collect(),
            spans: self.rec.into_events(),
            idle_seconds: self.idle_seconds,
            recovery: self.recovery,
        }
    }
}

/// Run one job on resident workers: open it with per-rank tag-10
/// sends, hand out wavenumbers in `policy` order (keeping a chunk for
/// every live rank that has not asked for work yet), collect the
/// two-part results, release every worker with tag 11, and gather
/// their per-job statistics.  The workers stay up; ending their
/// sessions (tag 6) is the pool's business, not the job's.
///
/// `watch` is polled between probes and must report liveness changes
/// (thread pools report workers whose session returned; process pools
/// report children that exited, and may report a respawn after
/// re-handshaking a replacement).  Under [`RecoveryPolicy::FailFast`] a
/// dead rank that was never released aborts the job with
/// [`FarmError::WorkerLost`] after draining the survivors; under
/// [`RecoveryPolicy::Requeue`] its work is redistributed.
///
/// Every per-job structure — the work queue, output slots, recovery
/// ledger, heartbeat clocks, idle accounting, span timeline — is built
/// fresh here, so consecutive jobs never share state: only the
/// transport endpoints (and, worker-side, the warm physics caches)
/// persist between calls.  Spans are stamped relative to `epoch`, so a
/// pool that hands the same epoch to its workers gets one aligned
/// timeline across all tracks.
///
/// `ctrl` is checked once per poll interval; a fired deadline or cancel
/// flag cancels the job cooperatively (see [`JobControl`]).  When
/// `prefetch` names the next job's spec, every tag-11 release is
/// followed by a tag-13 [`TAG_PREFETCH`] carrying it, so released
/// workers build that job's physics tables while the job's tail chunks
/// finish on their peers.  This is the ensemble scheduler's overlap
/// mechanism; it never changes results (caches are keyed on the
/// canonical cosmology hash).
#[allow(clippy::too_many_arguments)]
pub fn master_job_session<T: Transport>(
    t: &mut T,
    spec: &RunSpec,
    policy: SchedulePolicy,
    cfg: &MasterConfig,
    watch: &mut dyn FnMut() -> Vec<WorkerEvent>,
    epoch: Instant,
    ctrl: &JobControl<'_>,
    prefetch: Option<&RunSpec>,
) -> Result<MasterLedger, FarmError> {
    master_job_session_held(
        t, spec, policy, cfg, watch, epoch, ctrl, prefetch, &mut None,
    )
}

/// [`master_job_session`] for a pool that scripts a worker fault:
/// `hold` keeps part of the queue for the scripted rank (see
/// [`FaultHold`]) and is updated in place across the pool's jobs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn master_job_session_held<T: Transport>(
    t: &mut T,
    spec: &RunSpec,
    policy: SchedulePolicy,
    cfg: &MasterConfig,
    watch: &mut dyn FnMut() -> Vec<WorkerEvent>,
    epoch: Instant,
    ctrl: &JobControl<'_>,
    prefetch: Option<&RunSpec>,
    hold: &mut Option<FaultHold>,
) -> Result<MasterLedger, FarmError> {
    let t0 = Instant::now();
    let nk = spec.ks.len();
    let n_workers = t.size() - 1;
    let order = policy.order(&spec.ks);
    let job = tlog::job_hex(job_hash(spec));
    let mut s = Session {
        queue: WorkQueue::new(&order, nk),
        ks: spec.ks.clone(),
        outputs: (0..nk).map(|_| None).collect(),
        completion_log: Vec::with_capacity(nk),
        bytes_received: 0,
        stopped: HashSet::new(),
        stats: vec![None; n_workers],
        n_workers,
        policy: cfg.recovery,
        chunk: cfg.chunk.max(1),
        in_flight: vec![Vec::new(); n_workers],
        dead: HashSet::new(),
        last_seen: vec![Instant::now(); n_workers],
        parked: HashSet::new(),
        asked: HashSet::new(),
        hold,
        quarantined: HashSet::new(),
        recovery: RecoveryLog::default(),
        rec: SpanRecorder::new(epoch, 0, 0),
        idle_since: None,
        idle_seconds: 0.0,
        prefetch_wire: prefetch.map(RunSpec::encode),
        job: job.clone(),
    };
    tlog::log(
        Level::Info,
        "master",
        "job_start",
        &[
            ("job", job.clone()),
            ("modes", nk.to_string()),
            ("workers", n_workers.to_string()),
        ],
    );

    let spec_wire = spec.encode();
    // fold in casualties from earlier jobs first, so a rank that died on
    // the pool is never offered this job; a rank respawned between jobs
    // is a fresh worker that picks the job up from the tag-10 send like
    // everyone else
    for ev in watch() {
        match ev {
            WorkerEvent::Dead(rank) => {
                if rank == 0 || rank > n_workers || s.dead.contains(&rank) {
                    continue;
                }
                if s.policy.recovers() {
                    s.mark_dead(t, rank, "dead before job start")?;
                } else {
                    return Err(FarmError::WorkerLost {
                        rank,
                        unfinished: s.unfinished(),
                    });
                }
            }
            WorkerEvent::Respawned(rank) => {
                if rank == 0 || rank > n_workers {
                    continue;
                }
                s.dead.remove(&rank);
                s.release_hold(rank);
                s.recovery.respawns += 1;
            }
        }
    }
    for rank in 1..=n_workers {
        if s.dead.contains(&rank) {
            continue;
        }
        if let Err(e) = mysendreal(t, &spec_wire, TAG_NEWJOB, rank) {
            if s.policy.recovers() {
                s.mark_dead(t, rank, "unreachable at job start")?;
            } else {
                return Err(FarmError::Setup(e));
            }
        }
    }
    if s.dead.len() == s.n_workers {
        return Err(FarmError::AllWorkersLost {
            unfinished: s.unfinished(),
        });
    }

    let mut header = Vec::new();
    let mut payload = Vec::new();

    while !s.finished() {
        // deadline/cancel check rides the poll cadence: cancellation
        // latency is one poll interval plus the workers' observer lag
        if let Some(reason) = ctrl.triggered() {
            return Err(s.cancel_job(t, cfg, watch, reason));
        }
        // a quarantine can settle the run while workers sit parked
        if s.all_settled() {
            s.stop_parked(t)?;
        }
        let poll_start = Instant::now();
        let env = match t.probe_timeout(None, None, cfg.poll) {
            Ok(e) => e,
            Err(e) => {
                s.drain_and_stop(t, cfg, watch);
                return Err(FarmError::Comm(e));
            }
        };
        let Some(env) = env else {
            // nothing pending for a whole poll interval: the master is
            // idle; keep (or open) the contiguous idle interval
            if s.idle_since.is_none() {
                s.idle_since = Some(poll_start);
            }
            // silence: check for casualties before waiting again
            let events = watch();
            let dead_now: Vec<Rank> = events
                .iter()
                .filter_map(|e| match e {
                    WorkerEvent::Dead(r) => Some(*r),
                    WorkerEvent::Respawned(_) => None,
                })
                .collect();
            if let Some(rank) = s.apply_events(t, &spec_wire, events)? {
                s.drain_and_stop(t, cfg, watch);
                return Err(FarmError::WorkerLost {
                    rank,
                    unfinished: s.unfinished(),
                });
            }
            if cfg.recovery.recovers() {
                s.scan_heartbeats(t, cfg.heartbeat_timeout)?;
                if s.dead.len() == s.n_workers && !s.all_settled() {
                    return Err(FarmError::AllWorkersLost {
                        unfinished: s.unfinished(),
                    });
                }
            } else {
                // a stopped worker that died before reporting statistics
                // can never report; don't wait for it forever
                if let Some(&rank) = dead_now
                    .iter()
                    .find(|&&r| r >= 1 && r <= n_workers && s.stats[r - 1].is_none())
                {
                    if s.ikdone() == nk && s.stopped.len() == n_workers {
                        return Err(FarmError::WorkerJoin {
                            rank,
                            detail: "worker exited without reporting statistics".into(),
                        });
                    }
                }
            }
            continue;
        };
        let itid = env.source;
        s.end_idle();
        if itid >= 1 && itid <= n_workers {
            s.last_seen[itid - 1] = Instant::now();
        }

        // a rank already declared dead may still have messages in the
        // pipe (the death report raced them); consume without acting —
        // except its goodbye statistics, which are still good data
        if s.dead.contains(&itid) {
            let _ = myrecvreal(t, &mut payload, env.tag, itid);
            match env.tag {
                TAG_STATS => {
                    let _ = s.record_stats(itid, &payload);
                }
                TAG_HEADER | TAG_FAIL => s.recovery.late_results += 1,
                _ => {}
            }
            continue;
        }

        match env.tag {
            TAG_REQUEST => {
                // the worker is ready for its first ik; no data
                myrecvreal(t, &mut header, TAG_REQUEST, itid)?;
                s.asked.insert(itid);
                s.dispatch(t, itid)?;
            }
            TAG_HEARTBEAT => {
                // tag 9: liveness only; last_seen was refreshed above
                myrecvreal(t, &mut payload, TAG_HEARTBEAT, itid)?;
                s.recovery.heartbeats += 1;
            }
            TAG_HEADER => {
                let t_collect = Instant::now();
                // first part of the data; its tail tells us lmax
                myrecvreal(t, &mut header, TAG_HEADER, itid)?;
                // second part follows from the same worker (tag 5);
                // bounded wait in case the worker dies in between
                let data_deadline = Instant::now() + cfg.drain_timeout;
                let mut lost = false;
                loop {
                    match t.probe_timeout(Some(itid), Some(TAG_DATA), cfg.poll)? {
                        Some(_) => break,
                        None => {
                            let events = watch();
                            if let Some(rank) = s.apply_events(t, &spec_wire, events)? {
                                s.drain_and_stop(t, cfg, watch);
                                return Err(FarmError::WorkerLost {
                                    rank,
                                    unfinished: s.unfinished(),
                                });
                            }
                            if s.dead.contains(&itid) {
                                // apply_events already requeued its mode
                                lost = true;
                                break;
                            }
                            if Instant::now() >= data_deadline {
                                if cfg.recovery.recovers() {
                                    s.mark_dead(t, itid, "silent between header and data")?;
                                    lost = true;
                                    break;
                                }
                                s.drain_and_stop(t, cfg, watch);
                                return Err(FarmError::WorkerLost {
                                    rank: itid,
                                    unfinished: s.unfinished(),
                                });
                            }
                        }
                    }
                }
                if lost {
                    continue;
                }
                myrecvreal(t, &mut payload, TAG_DATA, itid)?;
                s.last_seen[itid - 1] = Instant::now();
                s.bytes_received += (header.len() + payload.len()) * 8;
                let (ik, out) = match ModeOutput::from_wire(&header, &payload) {
                    Ok(pair) => pair,
                    Err(e) => {
                        if cfg.recovery.recovers() {
                            let held = s.in_flight[itid - 1].len();
                            // a corrupted result is recoverable: the
                            // mode goes back to the queue
                            s.recover_chunk(t, itid, &format!("malformed result: {e}"))?;
                            if held <= 1 {
                                // single-mode protocol: the worker is
                                // between modes, hand it fresh work
                                s.dispatch(t, itid)?;
                            } else {
                                // mid-chunk the result stream can no
                                // longer be trusted mode-for-mode:
                                // retire the rank so its remaining
                                // sends are consumed as late traffic
                                s.mark_dead(t, itid, "result stream desynchronized")?;
                            }
                            continue;
                        }
                        s.drain_and_stop(t, cfg, watch);
                        return Err(FarmError::Wire {
                            rank: itid,
                            source: e,
                        });
                    }
                };
                if ik >= nk || s.outputs[ik].is_some() {
                    s.drain_and_stop(t, cfg, watch);
                    return Err(FarmError::Protocol {
                        rank: itid,
                        detail: format!("result for invalid or duplicate mode ik={ik}"),
                    });
                }
                s.rec.record(
                    "collect",
                    "master",
                    t_collect,
                    Instant::now(),
                    &[
                        ("ik", ik.to_string()),
                        ("k", format!("{:.6e}", out.k)),
                        ("worker", itid.to_string()),
                        ("job", s.job.clone()),
                    ],
                );
                s.outputs[ik] = Some(out);
                s.completion_log.push((ik, itid));
                s.resolve_in_flight(itid, ik);
                s.dispatch(t, itid)?;
                if s.all_settled() {
                    s.stop_parked(t)?;
                }
            }
            TAG_FAIL => {
                myrecvreal(t, &mut payload, TAG_FAIL, itid)?;
                let ik = payload.first().copied().unwrap_or(-1.0) as usize;
                let k = payload.get(1).copied().unwrap_or(f64::NAN);
                if cfg.recovery.recovers() {
                    // the worker survives its failed mode (and keeps
                    // working through the rest of its chunk); budget
                    // the mode and refill the worker once it runs dry
                    s.resolve_in_flight(itid, ik);
                    if ik < nk && s.outputs[ik].is_none() && !s.quarantined.contains(&ik) {
                        s.requeue_or_quarantine(
                            t,
                            ik,
                            &format!("integration failed on rank {itid}"),
                        )?;
                    }
                    s.dispatch(t, itid)?;
                    if s.all_settled() {
                        s.stop_parked(t)?;
                    }
                } else {
                    s.drain_and_stop(t, cfg, watch);
                    return Err(FarmError::Evolve {
                        rank: itid,
                        ik,
                        k,
                        source: None,
                    });
                }
            }
            TAG_STATS => {
                myrecvreal(t, &mut payload, TAG_STATS, itid)?;
                s.record_stats(itid, &payload)?;
            }
            other => {
                // consume it so the drain doesn't trip over it again,
                // then shut the session down
                let _ = myrecvreal(t, &mut payload, other, itid);
                s.drain_and_stop(t, cfg, watch);
                return Err(FarmError::Protocol {
                    rank: itid,
                    detail: format!("unexpected tag {other}"),
                });
            }
        }
    }

    if cfg.recovery.recovers() {
        // collect goodbye statistics that raced a death report, then give
        // ranks we declared dead on heartbeat evidence (which may in fact
        // be alive, just stalled) a best-effort release so they can park
        s.sweep_stats(t, cfg);
        for rank in 1..=n_workers {
            if !s.stopped.contains(&rank) {
                let _ = mysendreal(t, &[0.0], TAG_JOBDONE, rank);
            }
        }
    }

    let quarantined = s.quarantined.len();
    let ledger = s.into_ledger(t0);
    tlog::log(
        Level::Info,
        "master",
        "job_done",
        &[
            ("job", job),
            ("modes", ledger.completion_log.len().to_string()),
            ("quarantined", quarantined.to_string()),
            ("wall_ms", format!("{:.1}", ledger.wall_seconds * 1000.0)),
        ],
    );
    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TAG_STOP;
    use crate::worker::worker_pool_session;
    use boltzmann::Preset;
    use msgpass::channel::ChannelWorld;
    use std::thread;

    fn no_watch() -> impl FnMut() -> Vec<WorkerEvent> {
        Vec::new
    }

    fn run_job<T: Transport>(
        t: &mut T,
        spec: &RunSpec,
        policy: SchedulePolicy,
        cfg: &MasterConfig,
    ) -> Result<MasterLedger, FarmError> {
        master_job_session(
            t,
            spec,
            policy,
            cfg,
            &mut no_watch(),
            Instant::now(),
            &JobControl::default(),
            None,
        )
    }

    #[test]
    fn farm_protocol_end_to_end_two_workers() {
        let mut spec = RunSpec::standard_cdm(vec![0.002, 0.01, 0.03, 0.005]);
        spec.preset = Preset::Draft;
        let mut eps = ChannelWorld::new(3);
        let workers: Vec<_> = eps
            .drain(1..)
            .map(|mut ep| {
                thread::spawn(move || worker_pool_session(&mut ep, None, Instant::now()).unwrap())
            })
            .collect();
        let mut master_ep = eps.pop().unwrap();
        let cfg = MasterConfig::default();
        let ledger = run_job(&mut master_ep, &spec, SchedulePolicy::LargestFirst, &cfg).unwrap();
        // the job only released the workers; the session ends on tag 6
        for rank in 1..=2 {
            master_ep.send(rank, TAG_STOP, &[0.0]).unwrap();
        }

        assert_eq!(ledger.completion_log.len(), 4);
        assert!(ledger.outputs.iter().all(|o| o.is_some()));
        for (i, out) in ledger.outputs.iter().enumerate() {
            let out = out.as_ref().unwrap();
            assert_eq!(out.k, spec.ks[i], "slot {i} holds the right mode");
            assert!(out.delta_c.is_finite());
        }
        // largest-first: the first completion should be one of the big k's
        // (can't be strict with 2 workers, but the first *assignment* is
        // k = 0.03 → ik 2 must not complete last)
        assert!(ledger.completion_log.iter().any(|&(ik, _)| ik == 2));
        let local: Vec<_> = workers.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(local.iter().all(|o| o.jobs == 1));
        let total: usize = local.iter().map(|o| o.stats.modes).sum();
        assert_eq!(total, 4);
        // the wire-carried statistics must agree with the workers' own
        assert_eq!(ledger.worker_stats.len(), 2);
        for (wire, own) in ledger.worker_stats.iter().zip(&local) {
            assert_eq!(*wire, own.stats);
        }
        assert!(ledger.worker_stats.iter().all(|s| s.busy_seconds > 0.0));
        assert_eq!(
            ledger
                .worker_stats
                .iter()
                .map(|s| s.bytes_sent)
                .sum::<usize>(),
            ledger.bytes_received
        );
    }

    #[test]
    fn a_chunk_is_kept_for_every_worker_that_has_not_asked() {
        // two hand-written workers; the modes are never integrated —
        // each is reported failed and quarantined after one attempt
        let spec = RunSpec::standard_cdm(vec![0.01, 0.02]);
        let mut eps = ChannelWorld::new(3);
        let mut w2 = eps.pop().unwrap();
        let mut w1 = eps.pop().unwrap();
        let mut master_ep = eps.pop().unwrap();
        let cfg = MasterConfig {
            poll: Duration::from_millis(5),
            drain_timeout: Duration::from_millis(300),
            recovery: RecoveryPolicy::Requeue {
                max_attempts: 1,
                respawn: false,
            },
            ..MasterConfig::default()
        };
        let master =
            thread::spawn(move || run_job(&mut master_ep, &spec, SchedulePolicy::Fifo, &cfg));
        let mut buf = Vec::new();
        w1.recv(0, TAG_NEWJOB, &mut buf).unwrap();
        w1.send(0, TAG_REQUEST, &[0.0]).unwrap();
        w1.recv(0, TAG_ASSIGN, &mut buf).unwrap();
        assert_eq!(buf, [0.0]);
        w1.send(0, TAG_FAIL, &[0.0, 0.0]).unwrap();
        // rank 2 has not asked yet, so the last mode is kept for it
        let early = w1.probe_timeout(Some(0), None, Duration::from_millis(100));
        assert!(
            matches!(early, Ok(None)),
            "rank 1 took rank 2's mode: {early:?}"
        );
        w2.recv(0, TAG_NEWJOB, &mut buf).unwrap();
        w2.send(0, TAG_REQUEST, &[0.0]).unwrap();
        w2.recv(0, TAG_ASSIGN, &mut buf).unwrap();
        assert_eq!(buf, [1.0]);
        w2.send(0, TAG_FAIL, &[1.0, 0.0]).unwrap();
        for w in [&mut w1, &mut w2] {
            w.recv(0, TAG_JOBDONE, &mut buf).unwrap();
            w.send(0, TAG_STATS, &WorkerStats::default().to_wire())
                .unwrap();
        }
        let ledger = master.join().unwrap().unwrap();
        assert_eq!(ledger.recovery.failed_modes.len(), 2);
    }

    #[test]
    fn a_scripted_fault_keeps_its_modes_queued_until_handed_over() {
        // rank 2 is scripted to fail on its second mode (after_modes 1),
        // so two of the three modes wait for it even though rank 1 asks
        // first and asks again; the modes are reported failed, never
        // integrated, and quarantined after one attempt
        let spec = RunSpec::standard_cdm(vec![0.01, 0.02, 0.03]);
        let mut eps = ChannelWorld::new(3);
        let mut w2 = eps.pop().unwrap();
        let mut w1 = eps.pop().unwrap();
        let mut master_ep = eps.pop().unwrap();
        let cfg = MasterConfig {
            poll: Duration::from_millis(5),
            drain_timeout: Duration::from_millis(300),
            recovery: RecoveryPolicy::Requeue {
                max_attempts: 1,
                respawn: false,
            },
            ..MasterConfig::default()
        };
        let master = thread::spawn(move || {
            let mut hold = Some(FaultHold { rank: 2, modes: 2 });
            let ledger = master_job_session_held(
                &mut master_ep,
                &spec,
                SchedulePolicy::Fifo,
                &cfg,
                &mut no_watch(),
                Instant::now(),
                &JobControl::default(),
                None,
                &mut hold,
            );
            (ledger, hold)
        });
        let mut buf = Vec::new();
        w1.recv(0, TAG_NEWJOB, &mut buf).unwrap();
        w1.send(0, TAG_REQUEST, &[0.0]).unwrap();
        w1.recv(0, TAG_ASSIGN, &mut buf).unwrap();
        assert_eq!(buf, [0.0]);
        w1.send(0, TAG_FAIL, &[0.0, 0.0]).unwrap();
        let early = w1.probe_timeout(Some(0), None, Duration::from_millis(100));
        assert!(
            matches!(early, Ok(None)),
            "rank 1 took a mode held for rank 2: {early:?}"
        );
        w2.recv(0, TAG_NEWJOB, &mut buf).unwrap();
        w2.send(0, TAG_REQUEST, &[0.0]).unwrap();
        for ik in [1.0, 2.0] {
            w2.recv(0, TAG_ASSIGN, &mut buf).unwrap();
            assert_eq!(buf, [ik]);
            w2.send(0, TAG_FAIL, &[ik, 0.0]).unwrap();
        }
        for w in [&mut w1, &mut w2] {
            w.recv(0, TAG_JOBDONE, &mut buf).unwrap();
            w.send(0, TAG_STATS, &WorkerStats::default().to_wire())
                .unwrap();
        }
        let (ledger, hold) = master.join().unwrap();
        assert_eq!(ledger.unwrap().recovery.failed_modes.len(), 3);
        assert_eq!(hold, None, "the hold lapses once its modes are handed over");
    }

    #[test]
    fn unexpected_tag_drains_and_errors() {
        let spec = RunSpec::standard_cdm(vec![0.01]);
        let mut eps = ChannelWorld::new(2);
        let mut rogue = eps.pop().unwrap();
        let mut master_ep = eps.pop().unwrap();
        let h = thread::spawn(move || {
            let mut buf = Vec::new();
            // swallow the job open, then send garbage
            rogue.recv(0, TAG_NEWJOB, &mut buf).unwrap();
            rogue.send(0, 99, &[1.0]).unwrap();
            // the drain must still deliver our release
            rogue.recv(0, TAG_JOBDONE, &mut buf).unwrap();
        });
        let cfg = MasterConfig {
            poll: Duration::from_millis(5),
            drain_timeout: Duration::from_millis(300),
            ..MasterConfig::default()
        };
        let err = run_job(&mut master_ep, &spec, SchedulePolicy::Fifo, &cfg).unwrap_err();
        match err {
            FarmError::Protocol { rank, detail } => {
                assert_eq!(rank, 1);
                assert!(detail.contains("99"), "{detail}");
            }
            other => panic!("expected Protocol, got {other}"),
        }
        h.join().unwrap();
    }
}
