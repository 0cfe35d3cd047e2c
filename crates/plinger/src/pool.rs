//! Farm sessions: one worker pool that outlives any one job.
//!
//! The pool is the farm's one lifecycle.  [`FarmPool`] owns the master
//! endpoint and resident workers (each running
//! [`crate::worker::worker_pool_session`], with warm physics caches and
//! integrator scratch), while a [`Session`] borrows the pool for
//! exactly one k-grid job.  Per-job state — work queue, recovery
//! ledger, heartbeat clocks, idle accounting, telemetry — lives inside
//! [`crate::master::master_job_session`] and is rebuilt from scratch
//! every job; only endpoints and caches persist.  The one-shot
//! [`Farm::run`](crate::Farm::run) and [`crate::run_tcp_processes`] are
//! pools that run one job and shut down, so every run after the first
//! on a pool skips the worker-side [`Background`](background::Background)/
//! [`ThermoHistory`](recomb::ThermoHistory) construction when
//! consecutive jobs share a cosmology.
//!
//! How the workers run is the pool's one type parameter, its
//! [`Launcher`]: threads on any [`World`] (`FarmPool<ChannelWorld>`),
//! or `--tcp-worker` child processes over localhost TCP
//! ([`Subprocesses`]; [`TcpFarmPool`] names that pool).  A launcher
//! starts the ranks, reaps and relaunches one, reports their comm
//! counters, and joins them at close.  The jobs, the liveness watch
//! with its respawn budget, and the shutdown exist once, for both.
//!
//! Self-healing persists across jobs too.  A worker that dies mid-job
//! is respawned *into the pool*, not just the run, budgeted by the
//! respawn limit: a dead thread is joined and a fresh session spawned
//! on its recovered endpoint, and a child process that exited
//! abnormally is relaunched and re-handshaked under its rank through
//! the kept listening socket.  The replacement serves every later job
//! (`worker_respawned_into_pool` in the log).  A rank that cannot be
//! replaced — the budget is spent, or a panicked thread took its
//! endpoint down with it — stays dead (`worker_retired`).
//!
//! Determinism: every job runs the same master loop, the same dispatch
//! order, and bit-identical mode integrations whether it is a pool's
//! first job or its hundredth — warm caches are keyed on the canonical
//! cosmology hash and rebuilt whenever it changes, and cache reuse
//! never alters results, only skips table construction.  The
//! pool-vs-fresh bitwise tests in `tests/pool_sessions.rs` and
//! `tests/launchers.rs` pin this.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msgpass::fault::{FaultSpec, FaultyTransport};
use msgpass::instrument::{CommSnapshot, EndpointStats, Instrumented};
use msgpass::tcp::{PendingMaster, RespawnPort, TcpEndpoint};
use msgpass::{Rank, Transport, World};
use telemetry::SpanEvent;

use crate::error::FarmError;
use crate::farm::{finish_report, worker_fault_arg, FarmReport, FaultPlan, TcpFarmOptions};
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

/// What a thread pool hands back when it shuts down cleanly.
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

/// How a [`FarmPool`]'s workers run: threads on a [`World`] (every
/// `World` is a launcher) or child processes ([`Subprocesses`]).
pub trait Launcher {
    /// The running worker ranks, behind a crate-internal seam.
    type Ranks: seam::Ranks;
}

/// The launcher seam: only what differs between thread and process
/// workers.  Items are `pub` inside a private module, so the seam is
/// nameable in bounds but not implementable outside the crate.
mod seam {
    use super::*;

    /// A pool's resident worker ranks, numbered from 1 (rank 0 is the
    /// master).
    pub trait Ranks {
        /// The master's endpoint.
        type Master: Transport;
        /// What a rank whose worker ended leaves for its replacement.
        type Remains;
        /// What [`FarmPool::shutdown`] hands back.
        type Shutdown;

        /// Whether `rank`'s worker may still be running.
        fn running(&self, rank: Rank) -> bool;
        /// `None` while `rank`'s worker runs; once it has ended, reap it
        /// (harvesting its spans) and say whether a replacement can be
        /// launched on what it left.
        fn reap(&mut self, rank: Rank, spans: &mut WorkerSpans) -> Option<Option<Self::Remains>>;
        /// Launch a fresh worker under `rank`; `false` if that failed.
        fn relaunch(&mut self, rank: Rank, remains: Self::Remains) -> bool;
        /// Cumulative comm counters of the worker endpoints this side
        /// can see, in rank order.
        fn snapshots(&self) -> Vec<CommSnapshot>;
        /// Join every worker at close, dropping the master endpoint
        /// when that suits the workers' exit.
        fn join(&mut self, master: Option<Self::Master>, spans: &mut WorkerSpans);
        /// The shutdown value from the pool-lifetime leftovers.
        fn shutdown_value(jobs: usize, spans: WorkerSpans) -> Self::Shutdown;
    }

    /// Worker span timelines harvested from joined threads, with the
    /// count of spans their bounded recorders evicted.
    #[derive(Debug, Default)]
    pub struct WorkerSpans {
        pub events: Vec<SpanEvent>,
        pub dropped: u64,
    }

    /// Thread ranks on a `World`: one resident session thread each.
    pub struct Threads<W: World> {
        pub(super) workers: Vec<PoolWorker<W>>,
        pub(super) epoch: Instant,
    }
}

pub(crate) use seam::WorkerSpans;
use seam::{Ranks, Threads};

type MasterOf<L> = <<L as Launcher>::Ranks as Ranks>::Master;

impl WorkerSpans {
    fn absorb(&mut self, out: PoolWorkerOutcome) {
        self.events.extend(out.spans);
        self.dropped += out.spans_dropped;
    }
}

/// A pool endpoint: instrumented, then wrapped in the fault seam.  The
/// fault wrapper sits outside the instrumentation so a dropped message
/// is never counted as sent (closed-world telemetry survives fault
/// runs); with no message-level fault it is a passthrough.
type PoolEndpoint<W> = FaultyTransport<Instrumented<<W as World>::Endpoint>>;

/// One resident worker thread: its liveness flag, its thread (which
/// returns the endpoint on clean exit so a replacement session can be
/// spawned on it), and its comm-counter handle.
struct PoolWorker<W: World> {
    alive: Arc<AtomicBool>,
    handle: Option<WorkerHandle<W>>,
    stats: Arc<EndpointStats>,
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

impl<W: World> Launcher for W {
    type Ranks = Threads<W>;
}

impl<W: World> Ranks for Threads<W> {
    type Master = PoolEndpoint<W>;
    type Remains = PoolEndpoint<W>;
    type Shutdown = PoolShutdown;

    fn running(&self, rank: Rank) -> bool {
        self.workers[rank - 1].alive.load(Ordering::SeqCst)
    }

    fn reap(&mut self, rank: Rank, spans: &mut WorkerSpans) -> Option<Option<Self::Remains>> {
        let w = &mut self.workers[rank - 1];
        if w.alive.load(Ordering::SeqCst) {
            return None;
        }
        // a panicked thread dropped its endpoint, leaving the rank
        // unrecoverable; a clean return hands it back
        let joined = w.handle.take().and_then(|h| h.join().ok());
        Some(joined.map(|(outcome, ep)| {
            if let Ok(out) = outcome {
                spans.absorb(out);
            }
            ep
        }))
    }

    fn relaunch(&mut self, rank: Rank, ep: Self::Remains) -> bool {
        let (alive, handle) = spawn_pool_worker::<W>(ep, None, self.epoch);
        let w = &mut self.workers[rank - 1];
        w.alive = alive;
        w.handle = Some(handle);
        true
    }

    fn snapshots(&self) -> Vec<CommSnapshot> {
        self.workers
            .iter()
            .enumerate()
            .map(|(i, w)| w.stats.snapshot(i + 1))
            .collect()
    }

    fn join(&mut self, master: Option<Self::Master>, spans: &mut WorkerSpans) {
        for w in self.workers.iter_mut() {
            if let Some(handle) = w.handle.take() {
                if let Ok((Ok(out), _ep)) = handle.join() {
                    spans.absorb(out);
                }
            }
        }
        // the master outlives the joins, so every stop is delivered
        drop(master);
    }

    fn shutdown_value(jobs: usize, spans: WorkerSpans) -> PoolShutdown {
        PoolShutdown {
            jobs,
            worker_spans: spans.events,
            worker_spans_dropped: spans.dropped,
        }
    }
}

/// The process launcher: `--tcp-worker` subprocesses over localhost
/// TCP, relaunched under their rank through the kept listening socket.
/// Subprocess workers keep their comm counters and spans to themselves
/// (their tag-7 statistics still arrive), so a process pool's comm
/// table holds the master row only, and message-level [`FaultPlan`]s do
/// not cross the process boundary.
pub struct Subprocesses {
    children: Vec<Child>,
    port: RespawnPort,
    exe: PathBuf,
    addr: SocketAddr,
}

/// The multi-process pool: [`FarmPool`] over [`Subprocesses`].
/// [`crate::run_tcp_processes`] is this pool running one job.
pub type TcpFarmPool = FarmPool<Subprocesses>;

impl Launcher for Subprocesses {
    type Ranks = Subprocesses;
}

impl Ranks for Subprocesses {
    type Master = Instrumented<TcpEndpoint>;
    type Remains = ();
    type Shutdown = usize;

    /// A child counts as running until the watch reaps it.
    fn running(&self, _rank: Rank) -> bool {
        true
    }

    fn reap(&mut self, rank: Rank, _spans: &mut WorkerSpans) -> Option<Option<()>> {
        // a clean exit is a worker that took its stop (or a scripted
        // vanish, which exits with a marker code); only abnormal exits
        // are worth a replacement process
        match self.children[rank - 1].try_wait() {
            Ok(None) => None,
            Ok(Some(status)) => Some((!status.success()).then_some(())),
            Err(_) => Some(Some(())),
        }
    }

    fn relaunch(&mut self, rank: Rank, (): ()) -> bool {
        let size = self.children.len() + 1;
        match spawn_tcp_worker(&self.exe, self.addr, rank, size, None) {
            Ok(child) if self.port.admit(rank, Duration::from_secs(10)).is_ok() => {
                self.children[rank - 1] = child;
                true
            }
            _ => false,
        }
    }

    fn snapshots(&self) -> Vec<CommSnapshot> {
        Vec::new()
    }

    fn join(&mut self, master: Option<Self::Master>, _spans: &mut WorkerSpans) {
        // closing the master's sockets first lets any child still
        // blocked on a read see end-of-stream and exit
        drop(master);
        for c in self.children.iter_mut() {
            let _ = c.wait();
        }
    }

    fn shutdown_value(jobs: usize, _spans: WorkerSpans) -> usize {
        jobs
    }
}

fn spawn_tcp_worker(
    exe: &Path,
    addr: SocketAddr,
    rank: Rank,
    size: usize,
    fault: Option<String>,
) -> Result<Child, FarmError> {
    let mut cmd = Command::new(exe);
    cmd.arg("--tcp-worker")
        .arg(addr.to_string())
        .arg(rank.to_string())
        .arg(size.to_string());
    if let Some(f) = fault {
        cmd.arg(f);
    }
    cmd.stdin(Stdio::null()).spawn().map_err(|e| {
        FarmError::Setup(msgpass::CommError::Protocol(format!(
            "spawning worker {rank} failed: {e}"
        )))
    })
}

fn need_workers(n_workers: usize) -> Result<(), FarmError> {
    if n_workers < 1 {
        return Err(FarmError::Setup(msgpass::CommError::Unsupported(
            "a farm needs at least one worker",
        )));
    }
    Ok(())
}

/// A warm farm: a master and resident workers — physics caches,
/// integrator scratch, and heartbeat clocks intact — serving any number
/// of jobs.  `L` is how the workers run: threads on a [`World`], or
/// [`Subprocesses`] ([`TcpFarmPool`]).
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
pub struct FarmPool<L: Launcher> {
    master: Option<MasterOf<L>>,
    master_stats: Arc<EndpointStats>,
    ranks: L::Ranks,
    /// `handled[i]`: rank `i + 1`'s end was already reported with no
    /// replacement.  A reaped rank keeps reading as ended (`try_wait`
    /// keeps answering for a reaped child), so this gate makes each
    /// respawn attempt happen exactly once.
    handled: Vec<bool>,
    config: MasterConfig,
    epoch: Instant,
    respawns_left: usize,
    /// Cumulative per-endpoint snapshots at the end of the previous job
    /// (master first, then the visible workers in rank order) — the
    /// baseline the next job's per-job comm table is a delta against.
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
    /// Start a pool of `n_workers` resident worker threads with the
    /// default master configuration (FailFast; see [`MasterConfig`]).
    pub fn start(n_workers: usize) -> Result<Self, FarmError> {
        Self::start_with(n_workers, MasterConfig::default(), PoolOptions::default())
    }

    /// [`FarmPool::start`] with explicit per-job and pool-level knobs.
    pub fn start_with(
        n_workers: usize,
        config: MasterConfig,
        opts: PoolOptions,
    ) -> Result<Self, FarmError> {
        need_workers(n_workers)?;
        let mut eps = W::endpoints(n_workers + 1).map_err(FarmError::Setup)?;
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
        // rank 0 is the master; at least one worker rank follows it
        let master = wrap(eps.remove(0));
        let workers = eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                let (wrapped, stats) = wrap(ep);
                let fault = opts.fault.and_then(|f| f.worker_fault(i + 1));
                let (alive, handle) = spawn_pool_worker::<W>(wrapped, fault, epoch);
                PoolWorker {
                    alive,
                    handle: Some(handle),
                    stats,
                }
            })
            .collect();
        let ranks = Threads { workers, epoch };
        Ok(Self::assemble(
            master, ranks, n_workers, epoch, config, opts,
        ))
    }
}

impl FarmPool<Subprocesses> {
    /// Bind the master socket, spawn `n_workers` copies of `exe` as
    /// resident `--tcp-worker` processes, and complete the handshake.
    pub fn start(n_workers: usize, exe: &Path, opts: &TcpFarmOptions) -> Result<Self, FarmError> {
        need_workers(n_workers)?;
        let pending = PendingMaster::bind(n_workers).map_err(|e| {
            FarmError::Setup(msgpass::CommError::Protocol(format!("bind failed: {e}")))
        })?;
        let addr = pending.addr();
        let mut children: Vec<Child> = Vec::with_capacity(n_workers);
        let started = (1..=n_workers)
            .try_for_each(|rank| {
                let fault = worker_fault_arg(opts.fault, rank);
                children.push(spawn_tcp_worker(exe, addr, rank, n_workers + 1, fault)?);
                Ok(())
            })
            .and_then(|()| pending.accept_all_keep().map_err(FarmError::Setup));
        let (master_ep, port) = match started {
            Ok(pair) => pair,
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        };
        let ranks = Subprocesses {
            children,
            port,
            exe: exe.to_path_buf(),
            addr,
        };
        let pool_opts = PoolOptions {
            respawn_limit: opts.respawn_limit,
            fault: opts.fault,
        };
        let (master, epoch) = (Instrumented::new(master_ep), Instant::now());
        Ok(Self::assemble(
            master,
            ranks,
            n_workers,
            epoch,
            opts.master,
            pool_opts,
        ))
    }
}

impl<L: Launcher> FarmPool<L> {
    /// The pool around a freshly started master endpoint (with its comm
    /// counters) and `n_workers` worker ranks.  Respawns need a
    /// respawning recovery policy as well as a budget.
    fn assemble(
        (master, master_stats): (MasterOf<L>, Arc<EndpointStats>),
        ranks: L::Ranks,
        n_workers: usize,
        epoch: Instant,
        config: MasterConfig,
        opts: PoolOptions,
    ) -> Self {
        let respawn_allowed = matches!(
            config.recovery,
            RecoveryPolicy::Requeue { respawn: true, .. }
        );
        let mut pool = Self {
            master: Some(master),
            master_stats,
            handled: vec![false; n_workers],
            ranks,
            config,
            epoch,
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
        pool
    }

    /// Cumulative per-endpoint comm counters, master first, then the
    /// workers the launcher can see, in rank order.
    fn comm_snapshots(&self) -> Vec<CommSnapshot> {
        let mut snaps = vec![self.master_stats.snapshot(0)];
        snaps.extend(self.ranks.snapshots());
        snaps
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
    /// the whole of [`Farm::run`](crate::Farm::run) and
    /// [`crate::run_tcp_processes`].  The comm table and the worker
    /// spans are taken after the workers are joined, so the report
    /// holds the shutdown's tag-6 stops and every worker-side counter
    /// and span.  (`Instrumented::send` counts only once the inner send
    /// returns, so a table cut before the joins could miss a worker's
    /// last send.)
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
        self.handled.len()
    }

    /// Workers currently running — the readiness signal behind the
    /// service's `/healthz`.  A worker process counts until the
    /// liveness watch has reaped it.
    pub fn workers_alive(&self) -> usize {
        (1..=self.n_workers())
            .filter(|&rank| !self.handled[rank - 1] && self.ranks.running(rank))
            .count()
    }

    /// Jobs run to a report so far.
    pub fn jobs_run(&self) -> usize {
        self.jobs_run
    }

    /// Borrow the pool for one job under `policy`.
    pub fn session(&mut self, policy: SchedulePolicy) -> Session<'_, L> {
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

    /// Drive the master through one job under the pool's liveness
    /// watch, which reaps ended workers and relaunches them into the
    /// pool while the respawn budget lasts.
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
        let ranks = &mut self.ranks;
        let handled = &mut self.handled;
        let respawns_left = &mut self.respawns_left;
        let spans = &mut self.spans;
        let mut watch = || -> Vec<WorkerEvent> {
            let mut events = Vec::new();
            for rank in 1..=handled.len() {
                let Some(remains) = ranks.reap(rank, spans) else {
                    continue;
                };
                if handled[rank - 1] {
                    events.push(WorkerEvent::Dead(rank));
                    continue;
                }
                if let Some(remains) = remains.filter(|_| *respawns_left > 0) {
                    if ranks.relaunch(rank, remains) {
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
                        continue;
                    }
                }
                handled[rank - 1] = true;
                telemetry::log::log(
                    telemetry::Level::Warn,
                    "pool",
                    "worker_retired",
                    &[("worker", rank.to_string())],
                );
                events.push(WorkerEvent::Dead(rank));
            }
            events
        };
        master_job_session_held(
            master,
            spec,
            policy,
            &self.config,
            &mut watch,
            self.epoch,
            ctrl,
            prefetch,
            &mut self.fault_hold,
        )
    }

    /// Stop every resident worker (tag 6), join them, and return the
    /// pool-lifetime leftovers: for a thread pool a [`PoolShutdown`]
    /// (job count and the workers' span timelines), for a process pool
    /// the job count.
    pub fn shutdown(mut self) -> <L::Ranks as Ranks>::Shutdown {
        self.close();
        <L::Ranks as Ranks>::shutdown_value(self.jobs_run, std::mem::take(&mut self.spans))
    }

    /// Best-effort stop of every live worker and join of every one.
    /// Idempotent; shared by [`FarmPool::shutdown`] and `Drop`.
    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        if let Some(master) = self.master.as_mut() {
            for rank in 1..=self.handled.len() {
                if !self.handled[rank - 1] && self.ranks.running(rank) {
                    let _ = master.send(rank, TAG_STOP, &[0.0]);
                }
            }
        }
        self.ranks.join(self.master.take(), &mut self.spans);
    }
}

impl<L: Launcher> Drop for FarmPool<L> {
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
pub struct Session<'p, L: Launcher> {
    pool: &'p mut FarmPool<L>,
    policy: SchedulePolicy,
    ctrl: JobControl<'p>,
}

impl<'p, L: Launcher> Session<'p, L> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_serial, WORKER_SPAN_CAPACITY};
    use background::CosmoParams;
    use boltzmann::Preset;
    use msgpass::channel::ChannelWorld;

    #[test]
    fn non_flat_job_is_a_mode_error_and_the_pool_keeps_serving() {
        // Ω_c = 0.5 on the SCDM budget leaves Ω_k ≈ 0.45: every mode
        // fails typed on the worker (tag 8), no worker dies, and the
        // next job on the same pool is untouched
        let mut spec = RunSpec::standard_cdm(vec![2.0e-4, 8.0e-4, 4.0e-4]);
        spec.preset = Preset::Draft;
        let mut open = spec.clone();
        open.cosmo.omega_c = 0.5;
        let mut pool = FarmPool::<ChannelWorld>::start(2).expect("pool start");
        let err = pool
            .run_job(&open, SchedulePolicy::LargestFirst)
            .expect_err("open universe evolved");
        assert!(matches!(err, FarmError::Evolve { .. }), "{err}");
        assert_eq!(pool.workers_alive(), 2, "a worker died");

        spec.cosmo = CosmoParams::standard_cdm();
        let rep = pool
            .run_job(&spec, SchedulePolicy::LargestFirst)
            .expect("next job");
        let (serial, _) = run_serial(&spec).expect("serial");
        assert_eq!(rep.outputs.len(), serial.len());
        for (p, s) in rep.outputs.iter().zip(&serial) {
            assert_eq!(p.k.to_bits(), s.k.to_bits());
            assert_eq!(p.delta_c.to_bits(), s.delta_c.to_bits());
            assert_eq!(p.phi.to_bits(), s.phi.to_bits());
            for (a, b) in p.delta_t.iter().zip(&s.delta_t) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(pool.shutdown().jobs, 1);
    }

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
