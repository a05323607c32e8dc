//! The work-stealing multi-tenant scheduler — the only one in this
//! crate.
//!
//! A long-lived [`ServeEngine`] with worker threads, a bounded admission
//! queue, and online scheduling. [`Pool`](crate::Pool) is its batch
//! front: submit a fixed fleet, wait for all of it, shut down. It exists
//! to serve heavy multi-tenant instrumentation traffic with bounded tail
//! latency:
//!
//! * **Work stealing.** Each worker owns per-priority local deques. A
//!   worker takes its own oldest task, then from the global admission
//!   queue (FIFO), and only then steals a not-yet-started job from a
//!   randomly-chosen victim. A long richards job therefore cannot
//!   head-of-line-block anything: the jobs queued behind it are stolen by
//!   idle peers, and the long job itself is preempted at every fuel-slice
//!   boundary.
//! * **Suspended jobs stay on their worker; stealing moves pending
//!   jobs.** Until a worker picks a job up it is `Send`: an artifact plus
//!   `Send + Sync` monitor and linker factories. That worker builds the
//!   process and monitor, and from then on resumes, throttles, cancels
//!   and finalizes the job itself — the suspended
//!   [`exec::ExecState`](wizard_engine::exec) parked on
//!   [`RunOutcome::OutOfFuel`] never crosses a thread, which the compiler
//!   checks (the workspace forbids `unsafe`).
//! * **A panicking job fails alone.** A panic in a slice or in the final
//!   detach and report finalizes just that job as [`JobStatus::Failed`]
//!   (`"panicked: …"`, no report), billed for its completed slices; its
//!   worker drops its process and monitor and keeps serving.
//! * **Bounded admission with backpressure.** The queue holds at most
//!   `queue_capacity` not-yet-started jobs. [`ServeEngine::try_submit`]
//!   returns [`Submit::Rejected`] when full;
//!   [`ServeEngine::submit_blocking`] / [`ServeEngine::submit_timeout`]
//!   wait for space. Admission also *validates*: the job's module goes
//!   through the shared [`ArtifactCache`] at submit time, so invalid
//!   modules are rejected synchronously ([`Submit::Invalid`]) and warm
//!   tenants skip validation entirely.
//! * **Tenant fairness (deficit round robin).** Every job bills its fuel
//!   to a tenant. A tenant with a finite `quantum` may burn at most that
//!   much fuel per *round* (`round_fuel` units of fleet-wide execution);
//!   when its deficit runs out, its runnable tasks are parked
//!   ([`EngineStats::budget_throttles`]) — pending jobs in the tenant's
//!   throttled list, running ones on their own worker — until the next
//!   round refills deficits (capped at one quantum — DRR). Rounds also
//!   advance when workers would otherwise idle, so throttled work never
//!   deadlocks. Priorities are strict among *runnable* tasks; budgets
//!   are what keep a saturating high-priority tenant from starving
//!   everyone else.
//! * **Deadlines & cancellation.** [`JobHandle::cancel`] and per-job
//!   deadlines take effect at the next slice boundary (or immediately if
//!   the job is still queued/throttled). Cancelled jobs still detach
//!   their monitor — restoring the zero-overhead baseline — and report
//!   the fuel they really burned.
//! * **Observability.** Scheduler counters ([`EngineStats::steals`],
//!   [`EngineStats::queue_depth_max`], [`EngineStats::slices_executed`],
//!   [`EngineStats::budget_throttles`]) merge into the fleet-wide
//!   [`EngineStats`]; per-tenant fuel is reported via
//!   [`ServeEngine::tenant_stats`].
//!
//! ```
//! use wizard_engine::{EngineConfig, Value};
//! use wizard_pool::{Job, Priority, ServeConfig, ServeEngine};
//! use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
//! use wizard_wasm::types::ValType::I32;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new();
//! let mut f = FuncBuilder::new(&[I32], &[I32]);
//! let i = f.local(I32);
//! let acc = f.local(I32);
//! f.for_range(i, 0, |f| {
//!     f.local_get(acc).local_get(i).i32_add().local_set(acc);
//! });
//! f.local_get(acc);
//! mb.add_func("run", f);
//! let module = mb.build()?;
//!
//! let engine = ServeEngine::new(ServeConfig {
//!     workers: 2,
//!     engine: EngineConfig::builder().fuel_slice(500).build(),
//!     ..ServeConfig::default()
//! });
//! let mut handles = Vec::new();
//! for k in 0..8 {
//!     let job = Job::new(format!("job-{k}"), module.clone(), "run", vec![Value::I32(100)])
//!         .for_tenant("demo")
//!         .at_priority(if k % 2 == 0 { Priority::High } else { Priority::Low });
//!     handles.push(engine.try_submit(job).handle().expect("queue has space"));
//! }
//! for h in &handles {
//!     assert_eq!(h.wait().status.values(), Some(&[Value::I32(4950)][..]));
//! }
//! let summary = engine.shutdown();
//! assert_eq!(summary.completed, 8);
//! assert!(summary.stats.slices_executed >= 8);
//! # Ok(())
//! # }
//! ```

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use wizard_engine::store::Linker;
use wizard_engine::{
    EngineConfig, EngineStats, ModuleArtifact, Monitor, MonitorHandle, Process, Report, RunOutcome,
    Value,
};

use crate::{ArtifactCache, Job, Priority, DEFAULT_FUEL_SLICE};

/// Configuration of a [`ServeEngine`].
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads. `0` auto-sizes to the host's
    /// [`std::thread::available_parallelism`] — on a 1-core host that is
    /// a *single* worker, which degrades gracefully to cooperative
    /// fuel-slicing (no cross-thread scheduling overhead to pay for
    /// parallelism the host cannot deliver).
    pub workers: usize,
    /// Engine configuration for every process; its
    /// [`EngineConfig::fuel_slice`] is the per-turn budget (default
    /// [`DEFAULT_FUEL_SLICE`]).
    pub engine: EngineConfig,
    /// Admission-queue capacity: at most this many accepted-but-unstarted
    /// jobs. Submissions beyond it are [`Submit::Rejected`] (or wait, for
    /// the blocking variants).
    pub queue_capacity: usize,
    /// Consecutive slices a worker runs one task while *equal*-priority
    /// work waits, before rotating. Higher = better locality, coarser
    /// round-robin interleave. Strictly-higher-priority work preempts at
    /// the very next slice boundary regardless.
    pub stride: u64,
    /// Length of a tenant-fairness round in fleet-wide fuel units: each
    /// round, a tenant's deficit recovers by one `quantum`.
    pub round_fuel: u64,
    /// Fuel budget per round for tenants without an explicit quantum;
    /// `None` = unlimited.
    pub default_quantum: Option<u64>,
    /// Per-tenant budget overrides; see [`ServeConfig::tenant_budget`].
    pub quanta: Vec<(String, u64)>,
    /// Spawn workers parked: nothing is scheduled until
    /// [`ServeEngine::start`]. Lets tests fill the admission queue
    /// deterministically.
    pub start_paused: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            engine: EngineConfig::default(),
            queue_capacity: 1024,
            stride: 8,
            round_fuel: 1_000_000,
            default_quantum: None,
            quanta: Vec::new(),
            start_paused: false,
        }
    }
}

impl ServeConfig {
    /// Caps `tenant` at `quantum` fuel per [`ServeConfig::round_fuel`] of
    /// fleet execution.
    pub fn tenant_budget(mut self, tenant: impl Into<String>, quantum: u64) -> ServeConfig {
        self.quanta.push((tenant.into(), quantum.max(1)));
        self
    }

    /// The effective per-turn fuel budget.
    pub fn fuel_slice(&self) -> u64 {
        self.engine.fuel_slice.unwrap_or(DEFAULT_FUEL_SLICE).max(1)
    }

    /// The worker count after auto-sizing.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// Outcome of a submission attempt.
#[derive(Debug)]
pub enum Submit {
    /// The job was admitted; track it through the handle.
    Accepted(JobHandle),
    /// The admission queue is full (after the timeout, for
    /// [`ServeEngine::submit_timeout`]); the job is handed back.
    Rejected(Job),
    /// The job's module failed validation at admission.
    Invalid {
        /// The job, handed back.
        job: Job,
        /// The validation error.
        error: String,
    },
    /// The engine is draining or shut down; the job is handed back.
    Closed(Job),
}

impl Submit {
    /// The handle, if the job was accepted.
    pub fn handle(self) -> Option<JobHandle> {
        match self {
            Submit::Accepted(h) => Some(h),
            _ => None,
        }
    }

    /// `true` if the job was admitted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Submit::Accepted(_))
    }
}

/// Terminal state of a served job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// The entry function returned these values.
    Done(Vec<Value>),
    /// Link error, monitor-attach error, or trap.
    Failed(String),
    /// Cancelled via [`JobHandle::cancel`] (or [`ServeEngine::abort`]).
    Cancelled,
    /// The job's deadline passed before it finished.
    DeadlineExceeded,
}

impl JobStatus {
    /// `true` for [`JobStatus::Done`].
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Done(_))
    }

    /// The result values, if the job completed.
    pub fn values(&self) -> Option<&[Value]> {
        match self {
            JobStatus::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// The result of one served job.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Job name.
    pub name: String,
    /// Tenant the job billed to.
    pub tenant: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Worker that ran and finalized the job.
    pub worker: usize,
    /// Terminal status.
    pub status: JobStatus,
    /// The monitor's final report (after detach), if one was attached —
    /// produced even for cancelled jobs, covering what actually ran;
    /// `None` for a job that panicked.
    pub report: Option<Report>,
    /// The process's engine counters at finalization.
    pub stats: EngineStats,
    /// Fuel slices executed.
    pub slices: u64,
    /// Times the job resumed on a different worker than its previous
    /// slice ran on: always 0, since a job runs every slice on the worker
    /// that instantiated it. Kept so readers of the field keep compiling.
    pub migrations: u64,
    /// Admission → first slice.
    pub queue_delay: Duration,
    /// Admission → finalization.
    pub latency: Duration,
}

/// Per-tenant accounting, from [`ServeEngine::tenant_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Fuel billed to this tenant so far.
    pub fuel_spent: u64,
    /// Times one of its tasks was parked for budget exhaustion.
    pub throttles: u64,
    /// Jobs finalized (any status).
    pub jobs: u64,
}

/// Fleet-wide totals returned by [`ServeEngine::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Merged engine + scheduler counters (see [`ServeEngine::stats`]).
    pub stats: EngineStats,
    /// Monitor reports folded by title with [`Report::merge`].
    pub merged_reports: Vec<Report>,
    /// Per-tenant accounting, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
    /// Jobs finalized over the engine's lifetime.
    pub completed: u64,
}

impl ServeSummary {
    /// The merged report with this title, if any job produced one.
    pub fn merged_report(&self, title: &str) -> Option<&Report> {
        self.merged_reports.iter().find(|r| r.title == title)
    }
}

/// Tracks one admitted job; cheap to clone.
#[derive(Clone)]
pub struct JobHandle {
    state: Arc<JobState>,
    shared: Weak<Shared>,
}

impl JobHandle {
    /// The job's name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// Requests cancellation; takes effect at the next slice boundary
    /// (immediately if the job is queued or throttled). Idempotent; a
    /// no-op once the job finished.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::SeqCst);
        if let Some(shared) = self.shared.upgrade() {
            // Wake parked workers so a cancelled-but-throttled job is
            // finalized promptly instead of at the next natural round.
            let _guard = shared.inject.lock().expect("injector poisoned");
            shared.work.notify_all();
        }
    }

    /// `true` once cancellation was requested (the job may still be
    /// running its final slice).
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::SeqCst)
    }

    /// The outcome, if the job already finished.
    pub fn try_outcome(&self) -> Option<ServeOutcome> {
        self.state.done.lock().expect("job slot poisoned").clone()
    }

    /// Blocks until the job finishes.
    pub fn wait(&self) -> ServeOutcome {
        let mut slot = self.state.done.lock().expect("job slot poisoned");
        loop {
            if let Some(out) = slot.as_ref() {
                return out.clone();
            }
            slot = self.state.cv.wait(slot).expect("job slot poisoned");
        }
    }

    /// As [`JobHandle::wait`], up to `timeout`.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServeOutcome> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.done.lock().expect("job slot poisoned");
        loop {
            if let Some(out) = slot.as_ref() {
                return Some(out.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (s, _) =
                self.state.cv.wait_timeout(slot, deadline - now).expect("job slot poisoned");
            slot = s;
        }
    }
}

impl core::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JobHandle")
            .field("name", &self.state.name)
            .field("done", &self.try_outcome().is_some())
            .finish()
    }
}

struct JobState {
    name: String,
    cancelled: AtomicBool,
    done: Mutex<Option<ServeOutcome>>,
    cv: Condvar,
}

/// An admitted job no worker has started: all the admission queue, the
/// stealable deques and the tenants' throttled lists ever hold. It is
/// `Send` — the process and monitor it will run under are built by the
/// worker that picks it up, into a [`Running`] task.
struct PendingJob {
    name: String,
    tenant: String,
    priority: Priority,
    entry: String,
    args: Vec<Value>,
    artifact: Arc<ModuleArtifact>,
    monitor_factory: Option<crate::MonitorFactory>,
    linker_factory: Option<crate::LinkerFactory>,
    state: Arc<JobState>,
    admitted_at: Instant,
    deadline: Option<Instant>,
    quantum: Option<u64>,
}

/// A job its worker has instantiated. It owns the `!Send` process and
/// monitor, so it lives only in that worker's [`Worker`] state and never
/// leaves the thread.
struct Running {
    job: PendingJob,
    process: Process,
    monitor: Option<(MonitorHandle, Rc<RefCell<dyn Monitor>>)>,
    first_slice_at: Option<Instant>,
    fuel_seen: u64,
    slices: u64,
    consecutive: u64,
}

/// Admission queue: per-priority FIFOs of jobs not yet picked up.
struct Inject {
    qs: [VecDeque<PendingJob>; 3],
    closed: bool,
    paused: bool,
}

impl Inject {
    fn len(&self) -> usize {
        self.qs.iter().map(VecDeque::len).sum()
    }
}

struct Tenant {
    quantum: Option<u64>,
    deficit: i64,
    fuel_spent: u64,
    throttles: u64,
    jobs: u64,
    /// Pending jobs picked up while the tenant was over budget (running
    /// tasks park on their own worker instead).
    throttled: Vec<PendingJob>,
}

impl Tenant {
    /// `true` if the tenant has a budget and has spent this round's.
    fn over_budget(&self) -> bool {
        self.quantum.is_some() && self.deficit <= 0
    }
}

#[derive(Default)]
struct Agg {
    stats: EngineStats,
    reports: Vec<Report>,
    completed: u64,
    in_flight: u64,
}

struct Shared {
    engine: EngineConfig,
    fuel_slice: u64,
    stride: u64,
    round_fuel: u64,
    default_quantum: Option<u64>,
    quanta: HashMap<String, u64>,
    queue_capacity: usize,
    workers: usize,

    inject: Mutex<Inject>,
    /// Signalled (with `inject` held) when work may be available.
    work: Condvar,
    /// Signalled (with `inject` held) when queue space frees up.
    space: Condvar,
    /// Pending jobs per priority, across the injector and every stealable
    /// deque (throttled jobs excluded) — the lock-free hint preemption and
    /// slice-sizing decisions read, beside the worker's own deques.
    pending: [AtomicU64; 3],

    /// Each worker's stealable per-priority deques of pending jobs (other
    /// workers lock them only to steal).
    locals: Vec<Mutex<[VecDeque<PendingJob>; 3]>>,
    tenants: Mutex<HashMap<String, Tenant>>,
    agg: Mutex<Agg>,
    /// Signalled (with `agg` held) when `in_flight` hits zero.
    idle: Condvar,

    epoch_fuel: AtomicU64,
    steals: AtomicU64,
    slices_executed: AtomicU64,
    budget_throttles: AtomicU64,
    queue_depth_max: AtomicU64,
    admission_hits: AtomicU64,
    admission_misses: AtomicU64,

    shutdown: AtomicBool,
    abort: AtomicBool,
    cache: Arc<ArtifactCache>,
}

impl Shared {
    fn pending_above(&self, p: Priority) -> bool {
        self.pending[..p.index()].iter().any(|c| c.load(Ordering::Relaxed) > 0)
    }

    fn pending_at(&self, p: Priority) -> bool {
        self.pending[p.index()].load(Ordering::Relaxed) > 0
    }

    fn pending_any(&self) -> bool {
        self.pending.iter().any(|c| c.load(Ordering::Relaxed) > 0)
    }

    fn quantum_for(&self, tenant: &str) -> Option<u64> {
        self.quanta.get(tenant).copied().or(self.default_quantum)
    }
}

// What crosses threads is `Send` without any `unsafe impl`: jobs are
// submitted and stolen as values, and nothing reachable from the shared
// scheduler state holds a `Process`, an `Rc` or a `RefCell`.
const _: fn() = || {
    fn send<T: Send>() {}
    fn send_sync<T: Send + Sync>() {}
    send::<Job>();
    send::<PendingJob>();
    send_sync::<Shared>();
};

/// The work-stealing multi-tenant serving engine; see the
/// [module docs](self).
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServeEngine {
    /// Spawns the worker threads with a private [`ArtifactCache`].
    pub fn new(config: ServeConfig) -> ServeEngine {
        ServeEngine::with_cache(config, Arc::new(ArtifactCache::new()))
    }

    /// Spawns the worker threads, instantiating through a caller-owned
    /// cache — a long-lived server keeps its kernels warm across engine
    /// restarts (and shares them with batch [`Pool`](crate::Pool) runs).
    pub fn with_cache(config: ServeConfig, cache: Arc<ArtifactCache>) -> ServeEngine {
        let workers = config.effective_workers();
        let shared = Arc::new(Shared {
            engine: config.engine.clone(),
            fuel_slice: config.fuel_slice(),
            stride: config.stride.max(1),
            round_fuel: config.round_fuel.max(1),
            default_quantum: config.default_quantum,
            quanta: config.quanta.iter().cloned().collect(),
            queue_capacity: config.queue_capacity.max(1),
            workers,
            inject: Mutex::new(Inject {
                qs: Default::default(),
                closed: false,
                paused: config.start_paused,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            pending: Default::default(),
            locals: (0..workers).map(|_| Mutex::default()).collect(),
            tenants: Mutex::new(HashMap::new()),
            agg: Mutex::new(Agg::default()),
            idle: Condvar::new(),
            epoch_fuel: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            slices_executed: AtomicU64::new(0),
            budget_throttles: AtomicU64::new(0),
            queue_depth_max: AtomicU64::new(0),
            admission_hits: AtomicU64::new(0),
            admission_misses: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            cache,
        });
        let threads = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wizard-serve-{w}"))
                    .spawn(move || worker_loop(w, &shared))
                    .expect("spawn serve worker")
            })
            .collect();
        ServeEngine { shared, workers: threads }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Releases workers spawned with [`ServeConfig::start_paused`].
    pub fn start(&self) {
        let mut inject = self.shared.inject.lock().expect("injector poisoned");
        inject.paused = false;
        self.shared.work.notify_all();
    }

    /// Admits `job` if the queue has space; never blocks.
    pub fn try_submit(&self, job: Job) -> Submit {
        self.submit_inner(job, None)
    }

    /// Admits `job`, waiting for queue space if necessary.
    pub fn submit_blocking(&self, job: Job) -> Submit {
        self.submit_inner(job, Some(None))
    }

    /// Admits `job`, waiting up to `timeout` for queue space.
    pub fn submit_timeout(&self, job: Job, timeout: Duration) -> Submit {
        self.submit_inner(job, Some(Some(timeout)))
    }

    /// `wait`: `None` = fail fast, `Some(None)` = wait forever,
    /// `Some(Some(d))` = wait up to `d`.
    fn submit_inner(&self, job: Job, wait: Option<Option<Duration>>) -> Submit {
        // Validate (or warm-hit) through the shared cache *before* taking
        // any queue space: invalid modules are rejected synchronously and
        // never occupy a worker.
        let artifact = match self.shared.cache.lookup(&job.module) {
            Ok((art, hit)) => {
                if hit {
                    self.shared.admission_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.shared.admission_misses.fetch_add(1, Ordering::Relaxed);
                }
                art
            }
            Err(e) => return Submit::Invalid { error: e.to_string(), job },
        };

        let deadline = wait.and_then(|w| w).map(|d| Instant::now() + d);
        let mut inject = self.shared.inject.lock().expect("injector poisoned");
        loop {
            if inject.closed {
                return Submit::Closed(job);
            }
            if inject.len() < self.shared.queue_capacity {
                break;
            }
            match wait {
                None => return Submit::Rejected(job),
                Some(_) => {
                    let now = Instant::now();
                    if let Some(d) = deadline {
                        if now >= d {
                            return Submit::Rejected(job);
                        }
                        let (g, _) = self
                            .shared
                            .space
                            .wait_timeout(inject, d - now)
                            .expect("injector poisoned");
                        inject = g;
                    } else {
                        inject = self.shared.space.wait(inject).expect("injector poisoned");
                    }
                }
            }
        }

        let now = Instant::now();
        let state = Arc::new(JobState {
            name: job.name.clone(),
            cancelled: AtomicBool::new(false),
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        let quantum = self.shared.quantum_for(&job.tenant);
        let pending = PendingJob {
            name: job.name,
            tenant: job.tenant,
            priority: job.priority,
            entry: job.entry,
            args: job.args,
            artifact,
            monitor_factory: job.monitor,
            linker_factory: job.linker,
            state: Arc::clone(&state),
            admitted_at: now,
            deadline: job.deadline.map(|d| now + d),
            quantum,
        };
        let p = pending.priority.index();
        inject.qs[p].push_back(pending);
        let depth = inject.len() as u64;
        self.shared.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
        self.shared.pending[p].fetch_add(1, Ordering::Relaxed);
        self.shared.agg.lock().expect("aggregate poisoned").in_flight += 1;
        self.shared.work.notify_one();
        drop(inject);
        Submit::Accepted(JobHandle { state, shared: Arc::downgrade(&self.shared) })
    }

    /// Jobs admitted but not yet finalized.
    pub fn in_flight(&self) -> u64 {
        self.shared.agg.lock().expect("aggregate poisoned").in_flight
    }

    /// Jobs finalized so far.
    pub fn completed(&self) -> u64 {
        self.shared.agg.lock().expect("aggregate poisoned").completed
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.inject.lock().expect("injector poisoned").len()
    }

    /// Fleet-wide counters so far: merged per-job [`EngineStats`], the
    /// admission cache traffic this engine caused, and the scheduler
    /// counters (`steals`, `queue_depth_max`, `slices_executed`,
    /// `budget_throttles`).
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.shared.agg.lock().expect("aggregate poisoned").stats;
        stats.merge(&EngineStats {
            artifact_cache_hits: self.shared.admission_hits.load(Ordering::Relaxed),
            artifact_cache_misses: self.shared.admission_misses.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            queue_depth_max: self.shared.queue_depth_max.load(Ordering::Relaxed),
            slices_executed: self.shared.slices_executed.load(Ordering::Relaxed),
            budget_throttles: self.shared.budget_throttles.load(Ordering::Relaxed),
            ..EngineStats::default()
        });
        stats
    }

    /// Per-tenant accounting, sorted by tenant name.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let tenants = self.shared.tenants.lock().expect("tenants poisoned");
        let mut out: Vec<TenantStats> = tenants
            .iter()
            .map(|(name, t)| TenantStats {
                tenant: name.clone(),
                fuel_spent: t.fuel_spent,
                throttles: t.throttles,
                jobs: t.jobs,
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Monitor reports finalized so far, folded by title.
    pub fn merged_reports(&self) -> Vec<Report> {
        self.shared.agg.lock().expect("aggregate poisoned").reports.clone()
    }

    /// Closes admission and blocks until every admitted job finalizes.
    /// Further submissions return [`Submit::Closed`].
    pub fn drain(&self) {
        {
            let mut inject = self.shared.inject.lock().expect("injector poisoned");
            inject.closed = true;
            inject.paused = false;
            self.shared.work.notify_all();
            self.shared.space.notify_all();
        }
        let mut agg = self.shared.agg.lock().expect("aggregate poisoned");
        while agg.in_flight > 0 {
            agg = self.shared.idle.wait(agg).expect("aggregate poisoned");
        }
    }

    /// Graceful shutdown: [`ServeEngine::drain`], stop the workers, and
    /// return the fleet-wide summary.
    pub fn shutdown(mut self) -> ServeSummary {
        self.drain();
        self.stop_workers();
        self.summary()
    }

    /// Emergency shutdown: cancels every queued, throttled and running
    /// job (they finalize as [`JobStatus::Cancelled`], monitors detached
    /// as usual), then stops the workers.
    pub fn abort(mut self) -> ServeSummary {
        self.shared.abort.store(true, Ordering::SeqCst);
        self.drain();
        self.stop_workers();
        self.summary()
    }

    fn stop_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _inject = self.shared.inject.lock().expect("injector poisoned");
            self.shared.work.notify_all();
        }
        for t in self.workers.drain(..) {
            t.join().expect("serve worker panicked");
        }
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            stats: self.stats(),
            merged_reports: self.merged_reports(),
            tenants: self.tenant_stats(),
            completed: self.completed(),
        }
    }
}

impl Drop for ServeEngine {
    /// Graceful: drains outstanding jobs, then joins the workers.
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.drain();
            self.stop_workers();
        }
    }
}

impl core::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("workers", &self.shared.workers)
            .field("in_flight", &self.in_flight())
            .field("completed", &self.completed())
            .finish()
    }
}

// ---- the scheduler ----

fn worker_loop(w: usize, shared: &Shared) {
    let mut worker = Worker {
        w,
        shared,
        // Cheap xorshift for randomized victim selection; seeded per worker.
        rng: 0x9E37_79B9_7F4A_7C15 ^ ((w as u64 + 1) << 17),
        running: Default::default(),
        parked: Vec::new(),
    };
    loop {
        if worker.run_next() {
            continue;
        }
        // No runnable work: advance the fairness round if anything is
        // parked on a budget, here or in a tenant's throttled list
        // (starvation-freedom under idle workers).
        if refill_round(shared, worker.parked.is_empty()) || worker.unpark() {
            continue;
        }
        let inject = shared.inject.lock().expect("injector poisoned");
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Timed wait: steals and cross-worker state changes don't always
        // signal this worker, so re-poll at a coarse interval.
        let _ =
            shared.work.wait_timeout(inject, Duration::from_millis(1)).expect("injector poisoned");
    }
}

/// One worker thread's scheduling state, on that thread's stack: the
/// running tasks that only this worker ever resumes.
struct Worker<'s> {
    w: usize,
    shared: &'s Shared,
    rng: u64,
    /// Suspended tasks waiting for their next slice, per priority, oldest
    /// at the front.
    running: [VecDeque<Running>; 3],
    /// Suspended tasks whose tenant is over budget.
    parked: Vec<Running>,
}

impl Worker<'_> {
    /// Runs the highest-priority runnable work: this worker's own deques
    /// first, then [`Worker::next_pending`]. Returns `false` if there was
    /// none.
    fn run_next(&mut self) -> bool {
        self.unpark();
        let shared = self.shared;
        // Injector hint read before locking our deque; stale reads only cost
        // one out-of-order pick, never a missed task.
        let inject_best = Priority::ALL
            .into_iter()
            .find(|p| shared.pending_at(*p) && injector_has(shared, *p))
            .map(Priority::index);
        let mut local = shared.locals[self.w].lock().expect("local deque poisoned");
        for p in 0..3 {
            if inject_best.is_some_and(|b| b < p) {
                break; // the injector holds strictly more urgent work
            }
            // Pending jobs first: a batch is grabbed when this worker's
            // deques at that priority are empty, so its jobs are older
            // than any task in `running[p]` — the two drain as one FIFO.
            if let Some(job) = local[p].pop_back() {
                drop(local);
                shared.pending[p].fetch_sub(1, Ordering::Relaxed);
                self.start(job);
                return true;
            }
            if let Some(task) = self.running[p].pop_front() {
                drop(local);
                self.execute(task);
                return true;
            }
        }
        drop(local);
        let Some(job) = self.next_pending() else {
            return false;
        };
        self.start(job);
        true
    }

    /// Takes a pending job from the admission queue (FIFO), else steals
    /// one from a random victim.
    fn next_pending(&mut self) -> Option<PendingJob> {
        let shared = self.shared;
        {
            let mut inject = shared.inject.lock().expect("injector poisoned");
            if inject.paused {
                return None; // paused: don't steal either
            }
            for p in 0..3 {
                if let Some(job) = inject.qs[p].pop_front() {
                    shared.pending[p].fetch_sub(1, Ordering::Relaxed);
                    // Grab a batch behind the job we'll run: a worker
                    // claims its share of the backlog into its stealable
                    // deque, which is what gives idle peers something to
                    // steal (and keeps the injector lock cool).
                    let extra = (inject.qs[p].len() / shared.workers).min(BATCH);
                    let batch: Vec<PendingJob> = inject.qs[p].drain(..extra).collect();
                    if extra > 0 {
                        shared.space.notify_all();
                    } else {
                        shared.space.notify_one();
                    }
                    drop(inject);
                    if !batch.is_empty() {
                        let mut local = shared.locals[self.w].lock().expect("local deque poisoned");
                        // Oldest at the front: own pops favor the newest
                        // (hottest) job, steals take the oldest.
                        for job in batch.into_iter().rev() {
                            local[p].push_front(job);
                        }
                    }
                    return Some(job);
                }
            }
        }
        // Steal: visit the other workers once, in a randomized rotation.
        let n = shared.workers;
        if n > 1 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let start = (self.rng as usize) % n;
            for k in 0..n {
                let v = (start + k) % n;
                if v == self.w {
                    continue;
                }
                let mut victim = shared.locals[v].lock().expect("local deque poisoned");
                for p in 0..3 {
                    if let Some(job) = victim[p].pop_front() {
                        shared.pending[p].fetch_sub(1, Ordering::Relaxed);
                        shared.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(job);
                    }
                }
            }
        }
        None
    }

    /// Instantiates a pending job — linker, process and monitor are built
    /// here, from the job's `Send + Sync` factories, and never leave this
    /// thread — and runs it.
    fn start(&mut self, job: PendingJob) {
        let shared = self.shared;
        if let Some(status) = terminal_status(shared, &job) {
            finalize(shared, &job, job.outcome(self.w, status, None));
            return;
        }
        // An over-budget tenant's job waits in the tenant's throttled list
        // before it burns a slice: it was sitting in a queue when its
        // tenant ran dry, or left the list in a refill race.
        if tenant_over_budget(shared, &job) {
            throttle(&mut shared.tenants.lock().expect("tenants poisoned"), shared, &job)
                .throttled
                .push(job);
            return;
        }
        let linker = job.linker_factory.as_ref().map_or_else(Linker::new, |make| make());
        let mut process =
            match Process::instantiate(Arc::clone(&job.artifact), shared.engine.clone(), &linker) {
                Ok(process) => process,
                Err(e) => {
                    let status = JobStatus::Failed(format!("link error: {e}"));
                    finalize(shared, &job, job.outcome(self.w, status, None));
                    return;
                }
            };
        let mut monitor = None;
        if let Some(make) = &job.monitor_factory {
            let m = make();
            match process.attach_monitor_dyn(Rc::clone(&m)) {
                Ok(handle) => monitor = Some((handle, m)),
                Err(e) => {
                    drop(process);
                    let status = JobStatus::Failed(format!("monitor attach error: {e}"));
                    finalize(shared, &job, job.outcome(self.w, status, None));
                    return;
                }
            }
        }
        let task = Running {
            job,
            process,
            monitor,
            first_slice_at: None,
            fuel_seen: 0,
            slices: 0,
            consecutive: 0,
        };
        self.execute(task);
    }

    /// Runs one of this worker's tasks until it finishes, is preempted, or
    /// is parked on its tenant's budget.
    fn execute(&mut self, mut t: Running) {
        let shared = self.shared;
        // An over-budget tenant's task parks at pickup, before burning a
        // slice. (Cancelled tasks fall through: the terminal check below
        // finalizes them.)
        if !aborted(shared, &t.job) && tenant_over_budget(shared, &t.job) {
            self.park(t);
            return;
        }
        loop {
            // Terminal checks at every slice boundary.
            if let Some(status) = terminal_status(shared, &t.job) {
                finalize_running(self.w, shared, t, status);
                return;
            }
            // Adaptive slicing: when this task is the only work this worker
            // could run, run longer turns — fewer suspend/resume
            // round-trips, same preemption point the moment new work
            // arrives (the *next* boundary after admission).
            let fuel = if shared.pending_any() || self.running.iter().any(|q| !q.is_empty()) {
                shared.fuel_slice
            } else {
                shared.fuel_slice.saturating_mul(8)
            };
            let first = t.slices == 0;
            if first {
                t.first_slice_at = Some(Instant::now());
            }
            let Running { job, process, .. } = &mut t;
            // A panic anywhere in the slice (a probe, a host function, the
            // engine) fails this job only; no scheduler lock is held here.
            let turn = catch_unwind(AssertUnwindSafe(|| {
                if first {
                    process.run_export_bounded(&job.entry, &job.args, fuel)
                } else {
                    process.resume(fuel)
                }
            }));
            t.slices += 1;
            shared.slices_executed.fetch_add(1, Ordering::Relaxed);
            let over_budget = bill(shared, &mut t);

            let status = match turn {
                Ok(Ok(RunOutcome::OutOfFuel)) => None,
                Ok(Ok(RunOutcome::Done(values))) => Some(JobStatus::Done(values)),
                Ok(Err(trap)) => Some(JobStatus::Failed(trap.to_string())),
                Err(payload) => {
                    // The monitor may have been mid-update: it is dropped
                    // with the process, neither detached nor asked to report.
                    t.monitor = None;
                    Some(panicked(payload))
                }
            };
            if let Some(status) = status {
                finalize_running(self.w, shared, t, status);
                return;
            }
            if over_budget {
                self.park(t);
                return;
            }
            // A slice boundary is a scheduling point: parked tasks whose
            // tenant is solvent again rejoin the deques, and may preempt.
            self.unpark();
            let p = t.job.priority;
            t.consecutive += 1;
            let preempt =
                shared.pending_above(p) || self.running[..p.index()].iter().any(|q| !q.is_empty());
            let rotate = t.consecutive >= shared.stride
                && (shared.pending_at(p) || !self.running[p.index()].is_empty());
            if preempt || rotate {
                // Yield: to the back of this worker's line, so
                // equal-priority neighbours round-robin.
                t.consecutive = 0;
                self.running[p.index()].push_back(t);
                return;
            }
            // Keep running the same task (hot) for another slice.
        }
    }

    /// Parks a task on its tenant's exhausted budget, on this worker,
    /// until the tenant is solvent again ([`Worker::unpark`]).
    fn park(&mut self, mut t: Running) {
        t.consecutive = 0;
        throttle(&mut self.shared.tenants.lock().expect("tenants poisoned"), self.shared, &t.job);
        self.parked.push(t);
    }

    /// Moves parked tasks back into the running deques once their tenant
    /// is solvent again, or once they are due to be finalized (cancel,
    /// abort, deadline). Returns `true` if any moved.
    fn unpark(&mut self) -> bool {
        if self.parked.is_empty() {
            return false;
        }
        let shared = self.shared;
        let before = self.parked.len();
        let mut tenants = shared.tenants.lock().expect("tenants poisoned");
        for t in std::mem::take(&mut self.parked) {
            let job = &t.job;
            if terminal_status(shared, job).is_some()
                || !tenant_entry(&mut tenants, &job.tenant, job.quantum).over_budget()
            {
                self.running[job.priority.index()].push_back(t);
            } else {
                self.parked.push(t);
            }
        }
        self.parked.len() < before
    }
}

/// Most extra jobs one injector visit moves into a stealable deque.
const BATCH: usize = 8;

fn injector_has(shared: &Shared, p: Priority) -> bool {
    let inject = shared.inject.lock().expect("injector poisoned");
    !inject.paused && !inject.qs[p.index()].is_empty()
}

/// Bills the fuel a task burned since its last billing to its tenant, and
/// returns whether the tenant is over budget now.
fn bill(shared: &Shared, t: &mut Running) -> bool {
    let fuel_now = t.process.stats().fuel_consumed;
    let delta = fuel_now - t.fuel_seen;
    t.fuel_seen = fuel_now;
    // Bill and read the budget back under the same lock.
    let over_budget = {
        let mut tenants = shared.tenants.lock().expect("tenants poisoned");
        let tenant = tenant_entry(&mut tenants, &t.job.tenant, t.job.quantum);
        tenant.fuel_spent += delta;
        if tenant.quantum.is_some() {
            tenant.deficit = tenant.deficit.saturating_sub_unsigned(delta);
        }
        tenant.over_budget()
    };
    if shared.epoch_fuel.fetch_add(delta, Ordering::Relaxed) + delta >= shared.round_fuel {
        // The round this slice completed may have refilled the tenant:
        // look again.
        refill_round(shared, false);
        return over_budget && tenant_over_budget(shared, &t.job);
    }
    over_budget
}

/// Counts one budget throttle of `job`, and returns its tenant's entry
/// (for a pending job to join the throttled list).
fn throttle<'a>(
    tenants: &'a mut HashMap<String, Tenant>,
    shared: &Shared,
    job: &PendingJob,
) -> &'a mut Tenant {
    shared.budget_throttles.fetch_add(1, Ordering::Relaxed);
    let tenant = tenant_entry(tenants, &job.tenant, job.quantum);
    tenant.throttles += 1;
    tenant
}

fn aborted(shared: &Shared, job: &PendingJob) -> bool {
    shared.abort.load(Ordering::SeqCst) || job.state.cancelled.load(Ordering::SeqCst)
}

/// The status a job must be finalized with now, if any: it was cancelled
/// (or the engine aborted), or its deadline passed.
fn terminal_status(shared: &Shared, job: &PendingJob) -> Option<JobStatus> {
    if aborted(shared, job) {
        Some(JobStatus::Cancelled)
    } else if job.deadline.is_some_and(|d| Instant::now() >= d) {
        Some(JobStatus::DeadlineExceeded)
    } else {
        None
    }
}

/// `true` if the job's tenant has a budget and has spent it.
fn tenant_over_budget(shared: &Shared, job: &PendingJob) -> bool {
    job.quantum.is_some() && {
        let mut tenants = shared.tenants.lock().expect("tenants poisoned");
        tenant_entry(&mut tenants, &job.tenant, job.quantum).over_budget()
    }
}

/// The tenant's accounting entry, looked up by `&str`: the name is only
/// copied the first time the tenant is seen.
fn tenant_entry<'a>(
    tenants: &'a mut HashMap<String, Tenant>,
    name: &str,
    quantum: Option<u64>,
) -> &'a mut Tenant {
    if !tenants.contains_key(name) {
        let fresh = Tenant {
            quantum,
            deficit: quantum.map_or(0, |q| q as i64),
            fuel_spent: 0,
            throttles: 0,
            jobs: 0,
            throttled: Vec::new(),
        };
        tenants.insert(name.to_string(), fresh);
    }
    tenants.get_mut(name).expect("present or just inserted")
}

/// Advances the fairness round: refills every tenant's deficit by one
/// quantum (capped at one quantum of credit — DRR) and requeues throttled
/// pending jobs whose tenant is solvent again; parked running tasks rejoin
/// their own worker's deques at its next scheduling point. A worker with
/// no runnable work and nothing parked itself sets `only_if_throttled`:
/// then a round passes, even if the fuel epoch isn't full, only when some
/// tenant has throttled jobs — so throttled work can never deadlock.
/// Returns `true` if any pending job was released.
fn refill_round(shared: &Shared, only_if_throttled: bool) -> bool {
    let abort = shared.abort.load(Ordering::SeqCst);
    let released: Vec<PendingJob> = {
        let mut tenants = shared.tenants.lock().expect("tenants poisoned");
        let any_throttled = tenants.values().any(|t| !t.throttled.is_empty());
        if only_if_throttled && !any_throttled {
            return false;
        }
        shared.epoch_fuel.store(0, Ordering::Relaxed);
        let mut out = Vec::new();
        for t in tenants.values_mut() {
            if let Some(q) = t.quantum {
                t.deficit = t.deficit.saturating_add_unsigned(q).min(q as i64);
            }
            if t.deficit > 0 || abort {
                out.append(&mut t.throttled);
            }
        }
        out
    };
    if released.is_empty() {
        return false;
    }
    let mut inject = shared.inject.lock().expect("injector poisoned");
    for job in released {
        let p = job.priority.index();
        // Internal requeue: released jobs bypass the admission capacity
        // (they were admitted long ago) and rejoin the global queue so
        // any worker can pick them up.
        inject.qs[p].push_back(job);
        shared.pending[p].fetch_add(1, Ordering::Relaxed);
    }
    shared.work.notify_all();
    true
}

/// The status of a job whose slice or finalization panicked.
fn panicked(payload: Box<dyn Any + Send>) -> JobStatus {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload");
    JobStatus::Failed(format!("panicked: {message}"))
}

impl PendingJob {
    /// The job's outcome, finalized now on worker `w`, with no process
    /// state yet.
    fn outcome(&self, w: usize, status: JobStatus, first: Option<Instant>) -> ServeOutcome {
        let now = Instant::now();
        ServeOutcome {
            name: self.name.clone(),
            tenant: self.tenant.clone(),
            priority: self.priority,
            worker: w,
            status,
            report: None,
            stats: EngineStats::default(),
            slices: 0,
            migrations: 0,
            queue_delay: first.unwrap_or(now).duration_since(self.admitted_at),
            latency: now.duration_since(self.admitted_at),
        }
    }
}

/// Finalizes a running task on its worker: detach its monitor (restoring
/// the zero-overhead baseline — also for cancelled jobs) and take its
/// report, then drop process and monitor here. A panic in the detach or
/// the report fails the job, with no report.
fn finalize_running(w: usize, shared: &Shared, t: Running, mut status: JobStatus) {
    let Running { job, mut process, monitor, first_slice_at, slices, .. } = t;
    let report = catch_unwind(AssertUnwindSafe(|| {
        // Drop a parked mid-run state first (cancel/deadline paths), so
        // the monitor's final samples see a quiesced process.
        process.cancel_suspended();
        let (handle, monitor) = monitor?;
        process.detach_monitor(handle).expect("attached monitor detaches");
        let report = monitor.borrow().report();
        Some(report)
    }))
    .unwrap_or_else(|payload| {
        status = panicked(payload);
        None
    });
    let stats = process.stats();
    drop(process);
    let outcome = ServeOutcome { report, stats, slices, ..job.outcome(w, status, first_slice_at) };
    finalize(shared, &job, outcome);
}

/// Resolves the job's handle with its outcome and folds the outcome into
/// the tenant and fleet aggregates.
fn finalize(shared: &Shared, job: &PendingJob, outcome: ServeOutcome) {
    {
        let mut tenants = shared.tenants.lock().expect("tenants poisoned");
        tenant_entry(&mut tenants, &job.tenant, job.quantum).jobs += 1;
    }
    let mut agg = shared.agg.lock().expect("aggregate poisoned");
    agg.stats.merge(&outcome.stats);
    if let Some(r) = &outcome.report {
        match agg.reports.iter_mut().find(|m| m.title == r.title) {
            Some(m) => m.merge(r),
            None => agg.reports.push(r.clone()),
        }
    }
    agg.completed += 1;
    agg.in_flight -= 1;
    // Resolve the handle before `agg` is released: whoever `drain` wakes
    // finds every outcome set, and whoever a handle wakes finds the job
    // already counted.
    *job.state.done.lock().expect("job slot poisoned") = Some(outcome);
    job.state.cv.notify_all();
    if agg.in_flight == 0 {
        shared.idle.notify_all();
    }
}
