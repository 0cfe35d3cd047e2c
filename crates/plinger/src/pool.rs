//! Farm sessions: a worker pool that outlives any one job.
//!
//! The pool is the farm's one lifecycle.  [`FarmPool`] owns the world
//! and its resident workers (threads running
//! [`crate::worker::worker_pool_session`], with warm physics caches and
//! integrator scratch), while a [`Session`] borrows the pool for
//! exactly one k-grid job.  Per-job state — work queue, recovery
//! ledger, heartbeat clocks, idle accounting, telemetry — lives inside
//! [`crate::master::master_job_session`] and is rebuilt from scratch
//! every job; only endpoints and caches persist.  The one-shot
//! [`Farm::run`](crate::Farm::run) is a pool that runs one job and
//! shuts down, so every run after the first on a pool skips the
//! worker-side [`Background`](background::Background)/
//! [`ThermoHistory`](recomb::ThermoHistory) construction when
//! consecutive jobs share a cosmology.
//!
//! Self-healing persists across jobs too.  A worker that dies mid-job
//! is respawned *into the pool*, not just the run: the dead thread is
//! joined, its endpoint recovered, and a fresh persistent session
//! spawned on it (budgeted by [`PoolOptions::respawn_limit`]), so the
//! replacement rank serves every later job.  A thread that panicked
//! takes its endpoint down with it and the rank stays dead.  The
//! multi-process analogue is [`TcpFarmPool`], which keeps the
//! subprocess workers, the respawn listener, and the master socket
//! alive between jobs.
//!
//! Determinism: every job runs the same master loop, the same dispatch
//! order, and bit-identical mode integrations whether it is a pool's
//! first job or its hundredth — warm caches are keyed on the canonical
//! cosmology hash and rebuilt whenever it changes, and cache reuse
//! never alters results, only skips table construction.  The
//! pool-vs-fresh bitwise tests in `tests/pool_sessions.rs` pin this.

use std::path::Path;
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use msgpass::fault::{FaultSpec, FaultyTransport};
use msgpass::instrument::{CommSnapshot, EndpointStats, Instrumented};
use msgpass::tcp::{PendingMaster, RespawnPort, TcpEndpoint};
use msgpass::{Transport, World};
use telemetry::SpanEvent;

use crate::error::FarmError;
use crate::farm::{
    finish_report, spawn_tcp_worker, watch_tcp_children, worker_fault_arg, FarmReport, FaultPlan,
    TcpFarmOptions,
};
use crate::master::{master_job_session_held, FaultHold, JobControl, MasterConfig, MasterLedger};
use crate::protocol::{RunSpec, TAG_STOP};
use crate::recovery::{RecoveryPolicy, WorkerEvent};
use crate::schedule::SchedulePolicy;
use crate::worker::{worker_pool_session, PoolWorkerOutcome, WorkerFault};

/// Pool-level knobs (the per-job knobs live in [`MasterConfig`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolOptions {
    /// Total worker respawns allowed over the pool's lifetime.  Respawn
    /// also requires the recovery policy to be
    /// `RecoveryPolicy::Requeue { respawn: true, .. }`.
    pub respawn_limit: usize,
    /// Fault to script into the pool (tests): worker-level plans go to
    /// the initial workers, message-level plans become a
    /// [`FaultyTransport`] rule on every endpoint.
    pub fault: Option<FaultPlan>,
}

/// A pool endpoint: instrumented, then wrapped in the fault seam.  The
/// fault wrapper sits outside the instrumentation so a dropped message
/// is never counted as sent (closed-world telemetry survives fault
/// runs); with no message-level fault it is a passthrough.
type PoolEndpoint<W> = FaultyTransport<Instrumented<<W as World>::Endpoint>>;

/// One resident worker of a thread pool: its liveness flag, its thread
/// (which returns the endpoint on clean exit so a replacement session
/// can be spawned on it), and its comm-counter handle.
struct PoolWorker<W: World> {
    alive: Arc<AtomicBool>,
    handle: Option<WorkerHandle<W>>,
    stats: Arc<EndpointStats>,
    /// This rank's death was already reported with no replacement
    /// possible; stop re-joining it.
    handled: bool,
}

type WorkerReturn<W> = (Result<PoolWorkerOutcome, FarmError>, PoolEndpoint<W>);
type WorkerHandle<W> = JoinHandle<WorkerReturn<W>>;

fn spawn_pool_worker<W: World>(
    mut ep: PoolEndpoint<W>,
    fault: Option<WorkerFault>,
    epoch: Instant,
) -> (Arc<AtomicBool>, WorkerHandle<W>) {
    let alive = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&alive);
    let handle = std::thread::spawn(move || {
        let out = worker_pool_session(&mut ep, fault, epoch);
        flag.store(false, Ordering::SeqCst);
        // hand the endpoint back: a vanished-but-clean worker's endpoint
        // is reusable by a replacement session under the same rank
        (out, ep)
    });
    (alive, handle)
}

/// What a pool hands back when it shuts down cleanly.
#[derive(Debug, Default)]
pub struct PoolShutdown {
    /// Jobs the pool ran to a report.
    pub jobs: usize,
    /// Worker-side span timelines across all jobs (harvested at thread
    /// joins; per-job reports carry master spans only, because worker
    /// threads are still running when a job's report is cut — except
    /// the one-job [`Farm::run`](crate::Farm::run), whose report is cut
    /// after the joins).  Each worker keeps only its latest
    /// [`WORKER_SPAN_CAPACITY`](crate::WORKER_SPAN_CAPACITY) spans.
    pub worker_spans: Vec<SpanEvent>,
    /// Earlier worker spans evicted by that bound, summed over workers.
    pub worker_spans_dropped: u64,
}

/// Worker span timelines harvested from joined threads, with the count
/// of spans their bounded recorders evicted.
#[derive(Debug, Default)]
pub(crate) struct WorkerSpans {
    pub(crate) events: Vec<SpanEvent>,
    pub(crate) dropped: u64,
}

impl WorkerSpans {
    fn absorb(&mut self, out: PoolWorkerOutcome) {
        self.events.extend(out.spans);
        self.dropped += out.spans_dropped;
    }
}

/// A warm farm: one world whose workers stay resident — physics caches,
/// integrator scratch, and heartbeat clocks intact — across any number
/// of jobs.
///
/// ```no_run
/// use msgpass::channel::ChannelWorld;
/// use plinger::{FarmPool, RunSpec, SchedulePolicy};
///
/// let mut pool = FarmPool::<ChannelWorld>::start(4).expect("pool");
/// let a = RunSpec::standard_cdm(vec![0.001, 0.01]);
/// let rep1 = pool.session(SchedulePolicy::LargestFirst).run(&a).expect("job 1");
/// let rep2 = pool.session(SchedulePolicy::LargestFirst).run(&a).expect("job 2");
/// // same cosmology: job 2 rebuilt no physics tables
/// assert_eq!(rep2.worker_stats.iter().map(|w| w.ctx_rebuilds).sum::<usize>(), 0);
/// let _ = (rep1, pool.shutdown());
/// ```
pub struct FarmPool<W: World> {
    master: Option<PoolEndpoint<W>>,
    master_stats: Arc<EndpointStats>,
    workers: Vec<PoolWorker<W>>,
    config: MasterConfig,
    epoch: Instant,
    respawn_allowed: bool,
    respawns_left: usize,
    /// Cumulative per-endpoint snapshots at the end of the previous job
    /// (master first, then workers in rank order) — the baseline the
    /// next job's per-job comm table is a delta against.
    comm_prev: Vec<CommSnapshot>,
    /// Worker spans harvested from joined (dead or stopped) threads.
    spans: WorkerSpans,
    /// Queue the master keeps for a scripted worker fault until it has
    /// fired (fault-injection pools only; see [`FaultHold`]).
    fault_hold: Option<FaultHold>,
    jobs_run: usize,
    closed: bool,
}

impl<W: World> FarmPool<W> {
    /// Start a pool of `n_workers` resident workers with the default
    /// master configuration (FailFast; see [`MasterConfig`]).
    pub fn start(n_workers: usize) -> Result<Self, FarmError> {
        Self::start_with(n_workers, MasterConfig::default(), PoolOptions::default())
    }

    /// [`FarmPool::start`] with explicit per-job and pool-level knobs.
    pub fn start_with(
        n_workers: usize,
        config: MasterConfig,
        opts: PoolOptions,
    ) -> Result<Self, FarmError> {
        if n_workers < 1 {
            return Err(FarmError::Setup(msgpass::CommError::Unsupported(
                "a farm needs at least one worker",
            )));
        }
        let eps = W::endpoints(n_workers + 1).map_err(FarmError::Setup)?;
        if eps.len() != n_workers + 1 {
            return Err(FarmError::Setup(msgpass::CommError::Protocol(format!(
                "transport {} built {} endpoints for {} ranks",
                W::NAME,
                eps.len(),
                n_workers + 1
            ))));
        }
        let epoch = Instant::now();
        let fault_spec = opts
            .fault
            .map_or_else(FaultSpec::passthrough, |f| f.fault_spec());
        let wrap = |ep| {
            let (wrapped, stats) = Instrumented::new(ep);
            (FaultyTransport::new(wrapped, fault_spec.clone()).0, stats)
        };
        let mut eps = eps.into_iter();
        let (master, master_stats) = match eps.next() {
            Some(ep) => wrap(ep),
            None => {
                return Err(FarmError::Setup(msgpass::CommError::Protocol(
                    "world produced no master endpoint".into(),
                )))
            }
        };
        let workers: Vec<PoolWorker<W>> = eps
            .enumerate()
            .map(|(i, ep)| {
                let (wrapped, stats) = wrap(ep);
                let fault = opts.fault.and_then(|f| f.worker_fault(i + 1));
                let (alive, handle) = spawn_pool_worker::<W>(wrapped, fault, epoch);
                PoolWorker {
                    alive,
                    handle: Some(handle),
                    stats,
                    handled: false,
                }
            })
            .collect();
        let respawn_allowed = matches!(
            config.recovery,
            RecoveryPolicy::Requeue { respawn: true, .. }
        );
        let mut pool = Self {
            master: Some(master),
            master_stats,
            workers,
            config,
            epoch,
            respawn_allowed,
            respawns_left: if respawn_allowed {
                opts.respawn_limit
            } else {
                0
            },
            comm_prev: Vec::new(),
            spans: WorkerSpans::default(),
            fault_hold: opts.fault.and_then(|f| f.hold()),
            jobs_run: 0,
            closed: false,
        };
        pool.comm_prev = pool.comm_snapshots();
        Ok(pool)
    }

    /// Cumulative per-endpoint comm counters, master first, then the
    /// workers in rank order.
    fn comm_snapshots(&self) -> Vec<CommSnapshot> {
        std::iter::once(self.master_stats.snapshot(0))
            .chain(
                self.workers
                    .iter()
                    .enumerate()
                    .map(|(i, w)| w.stats.snapshot(i + 1)),
            )
            .collect()
    }

    /// The comm table since the previous cut, which becomes the next
    /// cut's baseline.
    fn cut_comm(&mut self) -> Vec<CommSnapshot> {
        let snaps = self.comm_snapshots();
        let comm = snaps
            .iter()
            .zip(&self.comm_prev)
            .map(|(now, prev)| now.delta(prev))
            .collect();
        self.comm_prev = snaps;
        comm
    }

    /// Run exactly one job, shut the pool down, and cut the report —
    /// the whole of [`Farm::run`](crate::Farm::run).  The comm table and
    /// the worker spans are taken after the worker threads are joined,
    /// so the report holds the shutdown's tag-6 stops and every
    /// worker-side counter and span.  (`Instrumented::send` counts only
    /// once the inner send returns, so a table cut before the joins
    /// could miss a worker's last send.)
    pub(crate) fn run_once(
        mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
    ) -> Result<FarmReport, FarmError> {
        let outcome = self.run_ledger(spec, policy, &JobControl::default(), None);
        self.close();
        let comm = self.cut_comm();
        finish_report(outcome?, comm, std::mem::take(&mut self.spans))
    }

    /// Workers in the pool (dead or alive — the rank count is fixed at
    /// start).
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Workers whose session thread is currently running — the
    /// readiness signal behind the service's `/healthz`.
    pub fn workers_alive(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive.load(Ordering::SeqCst))
            .count()
    }

    /// Jobs run to a report so far.
    pub fn jobs_run(&self) -> usize {
        self.jobs_run
    }

    /// Borrow the pool for one job under `policy`.
    pub fn session(&mut self, policy: SchedulePolicy) -> Session<'_, W> {
        Session {
            pool: self,
            policy,
            ctrl: JobControl::default(),
        }
    }

    /// Run one k-grid job on the resident workers and cut its report.
    ///
    /// Equivalent to `self.session(policy).run(spec)`.  The report's
    /// worker statistics, idle/imbalance accounting, recovery ledger,
    /// and comm table cover *this job only* — comm counters are deltas
    /// against a between-jobs baseline, and each worker reports fresh
    /// per-job stats on its tag-11 release.
    pub fn run_job(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
    ) -> Result<FarmReport, FarmError> {
        self.run_job_with(spec, policy, &JobControl::default())
    }

    /// [`FarmPool::run_job`] under external [`JobControl`]: a fired
    /// deadline or cancel flag aborts the job cooperatively (tag-12);
    /// the pool stays consistent — workers park, stats and comm
    /// baselines are refreshed — and the next `run_job` is served
    /// normally.  A cancelled job returns [`FarmError::Cancelled`].
    pub fn run_job_with(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
    ) -> Result<FarmReport, FarmError> {
        self.run_job_prefetched(spec, policy, ctrl, None)
    }

    /// [`FarmPool::run_job_with`] with an ensemble prefetch hint: when
    /// `prefetch` names the *next* job's spec, each worker released
    /// from this job is handed a tag-13 hint and builds that job's
    /// background/thermo tables while it parks — overlapping the next
    /// shard's context construction with this shard's tail chunks.
    /// Results are unaffected; the next job simply starts warm
    /// (`ctx_rebuilds == 0`, `prefetch_builds == 1` in its report).
    pub fn run_job_prefetched(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError> {
        let outcome = self.run_ledger(spec, policy, ctrl, prefetch);
        // refresh the comm baseline even on error, so a failed job's
        // traffic never leaks into the next job's table
        let comm = self.cut_comm();
        let ledger = outcome?;
        self.jobs_run += 1;
        finish_report(ledger, comm, WorkerSpans::default())
    }

    /// Drive the master through one job, with the pool's liveness watch
    /// (which reaps dead worker threads and respawns them into the pool
    /// while the budget lasts).
    fn run_ledger(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<MasterLedger, FarmError> {
        let Some(master) = self.master.as_mut() else {
            return Err(FarmError::Protocol {
                rank: 0,
                detail: "pool already shut down".into(),
            });
        };
        let epoch = self.epoch;
        let config = self.config;
        let respawn_allowed = self.respawn_allowed;
        let workers = &mut self.workers;
        let respawns_left = &mut self.respawns_left;
        let spans = &mut self.spans;
        let mut watch = || -> Vec<WorkerEvent> {
            let mut events = Vec::new();
            for (i, w) in workers.iter_mut().enumerate() {
                let rank = i + 1;
                if w.alive.load(Ordering::SeqCst) {
                    continue;
                }
                if w.handled {
                    events.push(WorkerEvent::Dead(rank));
                    continue;
                }
                // the session thread ended; reap it and decide whether
                // a replacement can inherit its endpoint
                let mut endpoint = None;
                // a panicked thread dropped its endpoint, leaving the
                // rank unrecoverable; a clean return hands it back
                if let Some(handle) = w.handle.take() {
                    if let Ok((outcome, ep)) = handle.join() {
                        if let Ok(out) = outcome {
                            spans.absorb(out);
                        }
                        endpoint = Some(ep);
                    }
                }
                match endpoint {
                    Some(ep) if respawn_allowed && *respawns_left > 0 => {
                        let (alive, handle) = spawn_pool_worker::<W>(ep, None, epoch);
                        w.alive = alive;
                        w.handle = Some(handle);
                        *respawns_left -= 1;
                        telemetry::log::log(
                            telemetry::Level::Warn,
                            "pool",
                            "worker_respawned_into_pool",
                            &[
                                ("worker", rank.to_string()),
                                ("respawns_left", respawns_left.to_string()),
                            ],
                        );
                        events.push(WorkerEvent::Respawned(rank));
                    }
                    _ => {
                        w.handled = true;
                        telemetry::log::log(
                            telemetry::Level::Warn,
                            "pool",
                            "worker_retired",
                            &[("worker", rank.to_string())],
                        );
                        events.push(WorkerEvent::Dead(rank));
                    }
                }
            }
            events
        };
        master_job_session_held(
            master,
            spec,
            policy,
            &config,
            &mut watch,
            epoch,
            ctrl,
            prefetch,
            &mut self.fault_hold,
        )
    }

    /// Stop every resident worker (tag 6), join their threads, and
    /// return the pool-lifetime leftovers: job count and the workers'
    /// span timelines.
    pub fn shutdown(mut self) -> PoolShutdown {
        self.close();
        let spans = std::mem::take(&mut self.spans);
        PoolShutdown {
            jobs: self.jobs_run,
            worker_spans: spans.events,
            worker_spans_dropped: spans.dropped,
        }
    }

    /// Best-effort release of every live worker and join of every
    /// thread.  Idempotent; shared by [`FarmPool::shutdown`] and `Drop`.
    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        if let Some(master) = self.master.as_mut() {
            for (i, w) in self.workers.iter().enumerate() {
                if w.handle.is_some() && w.alive.load(Ordering::SeqCst) {
                    let _ = master.send(i + 1, TAG_STOP, &[0.0]);
                }
            }
        }
        for w in self.workers.iter_mut() {
            if let Some(handle) = w.handle.take() {
                if let Ok((Ok(out), _ep)) = handle.join() {
                    self.spans.absorb(out);
                }
            }
        }
        self.master = None;
    }
}

impl<W: World> Drop for FarmPool<W> {
    fn drop(&mut self) {
        // a dropped pool must not leave resident workers blocked on a
        // probe forever
        self.close();
    }
}

/// One k-grid job borrowed onto a [`FarmPool`].  Consuming [`run`]
/// keeps the borrow honest: a session is exactly one job.
///
/// [`run`]: Session::run
pub struct Session<'p, W: World> {
    pool: &'p mut FarmPool<W>,
    policy: SchedulePolicy,
    ctrl: JobControl<'p>,
}

impl<'p, W: World> Session<'p, W> {
    /// Attach external [`JobControl`] — a deadline and/or cancel flag —
    /// to this session's job.  Without it the job runs to completion
    /// (the historical behaviour); with it a fired trigger cancels the
    /// job cooperatively exactly as [`FarmPool::run_job_with`] would.
    pub fn with_control(mut self, ctrl: JobControl<'p>) -> Self {
        self.ctrl = ctrl;
        self
    }

    /// Run the job and cut its per-job report.  Routes through
    /// [`FarmPool::run_job_with`] so any control attached with
    /// [`Session::with_control`] — deadline or cancel flag — applies to
    /// session-scoped jobs too.
    pub fn run(self, spec: &RunSpec) -> Result<FarmReport, FarmError> {
        self.pool.run_job_with(spec, self.policy, &self.ctrl)
    }
}

/// The multi-process analogue of [`FarmPool`]: subprocess workers over
/// localhost TCP stay resident — and respawnable through the kept
/// listening socket — across jobs.
///
/// Workers are `--tcp-worker` subprocesses running the same worker
/// session as the thread pools: jobs open with tag 10, close with
/// tag 11, and the final shutdown is a tag-6 stop.  A child that exits
/// abnormally mid-job is relaunched and re-handshaked under its rank
/// (budget permitting), and the replacement keeps serving later jobs.
/// [`crate::run_tcp_processes`] is this pool running one job.
pub struct TcpFarmPool {
    master: Option<Instrumented<TcpEndpoint>>,
    master_stats: Arc<EndpointStats>,
    port: RespawnPort,
    children: Vec<Child>,
    handled: Vec<bool>,
    respawns_left: usize,
    exe: std::path::PathBuf,
    addr: std::net::SocketAddr,
    size: usize,
    config: MasterConfig,
    epoch: Instant,
    comm_prev: CommSnapshot,
    /// Queue the master keeps for a scripted worker fault until it has
    /// fired (fault-injection pools only; see [`FaultHold`]).
    fault_hold: Option<FaultHold>,
    jobs_run: usize,
    closed: bool,
}

impl TcpFarmPool {
    /// Bind the master socket, spawn `n_workers` copies of `exe` as
    /// resident workers, and complete the handshake.
    pub fn start(n_workers: usize, exe: &Path, opts: &TcpFarmOptions) -> Result<Self, FarmError> {
        if n_workers < 1 {
            return Err(FarmError::Setup(msgpass::CommError::Unsupported(
                "a farm needs at least one worker",
            )));
        }
        let pending = PendingMaster::bind(n_workers).map_err(|e| {
            FarmError::Setup(msgpass::CommError::Protocol(format!("bind failed: {e}")))
        })?;
        let addr = pending.addr();
        let size = n_workers + 1;
        let mut children: Vec<Child> = Vec::with_capacity(n_workers);
        for rank in 1..=n_workers {
            match spawn_tcp_worker(exe, addr, rank, size, worker_fault_arg(opts.fault, rank)) {
                Ok(c) => children.push(c),
                Err(e) => {
                    for mut c in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return Err(e);
                }
            }
        }
        let (master_ep, port) = match pending.accept_all_keep() {
            Ok(pair) => pair,
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(FarmError::Setup(e));
            }
        };
        let (master, master_stats) = Instrumented::new(master_ep);
        let cfg = opts.master;
        let respawn_allowed = matches!(cfg.recovery, RecoveryPolicy::Requeue { respawn: true, .. });
        let comm_prev = master_stats.snapshot(0);
        Ok(Self {
            master: Some(master),
            master_stats,
            port,
            handled: vec![false; n_workers],
            children,
            respawns_left: if respawn_allowed {
                opts.respawn_limit
            } else {
                0
            },
            exe: exe.to_path_buf(),
            addr,
            size,
            config: cfg,
            epoch: Instant::now(),
            comm_prev,
            fault_hold: opts.fault.and_then(|f| f.hold()),
            jobs_run: 0,
            closed: false,
        })
    }

    /// Jobs run to a report so far.
    pub fn jobs_run(&self) -> usize {
        self.jobs_run
    }

    /// Run one k-grid job on the resident subprocesses.  As with
    /// [`FarmPool::run_job`], everything in the report is per-job; the
    /// master-side comm snapshot is a delta against the previous job's
    /// baseline (subprocess workers keep their local telemetry to
    /// themselves — their wire-shipped tag-7 statistics still arrive).
    pub fn run_job(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
    ) -> Result<FarmReport, FarmError> {
        self.run_job_with(spec, policy, &JobControl::default())
    }

    /// [`TcpFarmPool::run_job`] under external [`JobControl`] — the
    /// process-pool analogue of [`FarmPool::run_job_with`].
    pub fn run_job_with(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
    ) -> Result<FarmReport, FarmError> {
        self.run_job_prefetched(spec, policy, ctrl, None)
    }

    /// [`TcpFarmPool::run_job_with`] with an ensemble prefetch hint —
    /// the process-pool analogue of [`FarmPool::run_job_prefetched`].
    pub fn run_job_prefetched(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<FarmReport, FarmError> {
        let outcome = self.run_ledger(spec, policy, ctrl, prefetch);
        let comm = self.cut_comm();
        let ledger = outcome?;
        self.jobs_run += 1;
        finish_report(ledger, comm, WorkerSpans::default())
    }

    /// Run exactly one job, shut the pool down, and cut the report —
    /// the whole of [`crate::run_tcp_processes`].  The master's comm
    /// table is cut after the shutdown, so it holds the tag-6 stops.
    pub(crate) fn run_once(
        mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
    ) -> Result<FarmReport, FarmError> {
        let outcome = self.run_ledger(spec, policy, &JobControl::default(), None);
        self.close();
        let comm = self.cut_comm();
        finish_report(outcome?, comm, WorkerSpans::default())
    }

    /// The master endpoint's comm table since the previous cut, which
    /// becomes the next cut's baseline (subprocess workers keep their
    /// local counters to themselves).
    fn cut_comm(&mut self) -> Vec<CommSnapshot> {
        let snap = self.master_stats.snapshot(0);
        let comm = snap.delta(&self.comm_prev);
        self.comm_prev = snap;
        vec![comm]
    }

    /// Drive the master through one job, with the child-process watch
    /// (which relaunches crashed workers while the budget lasts).
    fn run_ledger(
        &mut self,
        spec: &RunSpec,
        policy: SchedulePolicy,
        ctrl: &JobControl<'_>,
        prefetch: Option<&RunSpec>,
    ) -> Result<MasterLedger, FarmError> {
        let Some(master) = self.master.as_mut() else {
            return Err(FarmError::Protocol {
                rank: 0,
                detail: "pool already shut down".into(),
            });
        };
        let config = self.config;
        let epoch = self.epoch;
        let children = &mut self.children;
        let handled = &mut self.handled;
        let respawns_left = &mut self.respawns_left;
        let (exe, addr, size, port) = (&self.exe, self.addr, self.size, &self.port);
        let mut watch = || -> Vec<WorkerEvent> {
            watch_tcp_children(children, handled, respawns_left, exe, addr, size, port)
        };
        master_job_session_held(
            master,
            spec,
            policy,
            &config,
            &mut watch,
            epoch,
            ctrl,
            prefetch,
            &mut self.fault_hold,
        )
    }

    /// Stop every resident worker and wait for the subprocesses.
    pub fn shutdown(mut self) -> usize {
        self.close();
        self.jobs_run
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        if let Some(master) = self.master.as_mut() {
            for rank in 1..=self.children.len() {
                if !self.handled[rank - 1] {
                    let _ = master.send(rank, TAG_STOP, &[0.0]);
                }
            }
        }
        self.master = None;
        for c in self.children.iter_mut() {
            let _ = c.wait();
        }
    }
}

impl Drop for TcpFarmPool {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKER_SPAN_CAPACITY;
    use boltzmann::Preset;
    use msgpass::channel::ChannelWorld;

    #[test]
    fn resident_worker_span_timeline_is_bounded() {
        // enough jobs that one worker's `mode`/`wait` spans overflow
        // its ring: about 2 spans per mode plus one per job
        let mut spec = RunSpec::standard_cdm(vec![2.0e-4, 3.0e-4, 4.0e-4, 5.0e-4]);
        spec.preset = Preset::Draft;
        let jobs = WORKER_SPAN_CAPACITY / 8;
        let mut pool = FarmPool::<ChannelWorld>::start(1).expect("pool start");
        for _ in 0..jobs {
            pool.run_job(&spec, SchedulePolicy::LargestFirst)
                .expect("pooled job");
        }
        let shutdown = pool.shutdown();
        assert_eq!(shutdown.jobs, jobs);
        assert!(
            shutdown.worker_spans.len() <= WORKER_SPAN_CAPACITY,
            "{} worker spans kept",
            shutdown.worker_spans.len()
        );
        assert!(shutdown.worker_spans_dropped > 0, "nothing was evicted");
        // a ring only evicts when full
        assert_eq!(shutdown.worker_spans.len(), WORKER_SPAN_CAPACITY);
    }
}
