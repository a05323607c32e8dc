//! `wizard-pool`: one scheduler for fleets of instrumented Wasm
//! processes, with a batch front ([`Pool`]) and a serving front
//! ([`ServeEngine`]).
//!
//! The engine ([`wizard_engine`]) is deliberately single-threaded — probes,
//! monitors and the FrameAccessor machinery are `Rc`/`RefCell`-based, as in
//! the paper. Serving many instrumented programs concurrently therefore
//! cannot share one process across threads; instead every [`Job`] (a
//! module, an entry point, arguments and an optional monitor) becomes its
//! own process, and the scheduler in [`serve`] multiplexes those processes
//! over N worker threads:
//!
//! * a process runs in **fuel slices**
//!   ([`Process::run_export_bounded`] / [`Process::resume`]): each turn
//!   executes a bounded number of bytecode instructions, so no job
//!   monopolizes its worker; between slices a suspended process waits on
//!   the worker that started it (idle workers steal only jobs that have
//!   not started);
//! * suspension is transparent to instrumentation — a sliced run fires
//!   exactly the probes of an unbounded run — so per-job monitor
//!   [`Report`]s are exact, and the scheduler folds them into fleet-wide
//!   aggregates with [`Report::merge`] alongside a merged
//!   [`EngineStats`].
//!
//! [`Pool`] is the batch shape: queue jobs, [`Pool::run`] submits them
//! all to a private [`ServeEngine`], waits, and returns the outcomes in
//! submission order. There is no second scheduler behind it, so a
//! batch job's [`Job::priority`], [`Job::tenant`] and [`Job::deadline`]
//! mean exactly what they mean to a served job.
//!
//! Monitors are created *on the worker thread* via a [`MonitorFactory`]
//! (the factory is `Send + Sync`; the monitor it builds stays on the
//! worker that runs its job), which is what lets an `Rc`-based analysis
//! run per-process in a multi-threaded fleet.
//!
//! The scheduler also amortizes the *code pipeline*: every run owns an
//! [`ArtifactCache`] keyed by module identity (the module's canonical
//! binary encoding) and shared across all worker threads. The first job
//! admitting a module validates and builds its [`ModuleArtifact`]; every
//! later job — on *any* worker — instantiates from the shared artifact
//! with [`Process::instantiate`], skipping validation, lowering and
//! baseline JIT compilation entirely, and executing from the very same
//! lowered code until its own monitor installs a probe (which
//! copy-on-writes only the probed functions, invisibly to sibling jobs).
//! Cache traffic is reported fleet-wide through
//! [`EngineStats::artifact_cache_hits`]/[`EngineStats::artifact_cache_misses`].
//!
//! [`Process::run_export_bounded`]: wizard_engine::Process::run_export_bounded
//! [`Process::resume`]: wizard_engine::Process::resume
//! [`Process::instantiate`]: wizard_engine::Process::instantiate
//!
//! ```
//! use std::sync::Arc;
//! use wizard_engine::{EngineConfig, Value};
//! use wizard_pool::{Job, Pool, PoolConfig};
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
//! let config = PoolConfig {
//!     shards: 2,
//!     engine: EngineConfig::builder().fuel_slice(1000).build(),
//! };
//! let mut pool = Pool::new(config);
//! for k in 0..4 {
//!     pool.submit(Job::new(format!("job-{k}"), module.clone(), "run", vec![Value::I32(100)]));
//! }
//! let outcome = pool.run();
//! assert_eq!(outcome.jobs.len(), 4);
//! assert!(outcome.jobs.iter().all(|j| j.result == Ok(vec![Value::I32(4950)])));
//! assert!(outcome.stats.suspensions > 0); // the fleet really was time-sliced
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod serve;

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub use serve::{
    JobHandle, JobStatus, ServeConfig, ServeEngine, ServeOutcome, ServeSummary, Submit, TenantStats,
};

use wizard_engine::store::Linker;
use wizard_engine::{EngineConfig, EngineStats, ModuleArtifact, Monitor, Report, Value};
use wizard_wasm::module::Module;
use wizard_wasm::validate::ValidateError;

/// Fuel slice used when [`EngineConfig::fuel_slice`] is unset: large
/// enough to amortize scheduling, small enough to interleave sub-second
/// kernels.
pub const DEFAULT_FUEL_SLICE: u64 = 100_000;

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads the batch is scheduled over.
    pub shards: usize,
    /// Engine configuration used by every process in the pool. Its
    /// [`EngineConfig::fuel_slice`] is the per-turn instruction budget
    /// (falling back to [`DEFAULT_FUEL_SLICE`]).
    pub engine: EngineConfig,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig { shards: 2, engine: EngineConfig::default() }
    }
}

/// Builds a monitor on a worker thread. The factory is shared between
/// threads; the `Rc`-based monitor it creates stays confined to its job.
pub type MonitorFactory = Arc<dyn Fn() -> Rc<RefCell<dyn Monitor>> + Send + Sync>;

/// Builds a [`Linker`] on the worker thread that instantiates the job.
/// Like [`MonitorFactory`], the factory crosses threads but the
/// `Rc`-based linker it creates never does — this is how jobs whose
/// modules import host functions (e.g. the ingestion corpus under
/// [`wizard_engine::Shims`]) run in a multi-threaded fleet.
pub type LinkerFactory = Arc<dyn Fn() -> Linker + Send + Sync>;

/// Scheduling priority of a [`Job`], whether served ([`ServeEngine`]) or
/// batch-run ([`Pool`]). Lower values are more urgent.
///
/// Priorities are *strict* among runnable work — a worker never picks a
/// `Low` task while a `High` task is queued — but starvation-freedom for
/// low-priority tenants comes from per-tenant fuel budgets: saturating
/// high-priority tenants run out of deficit and are throttled, letting
/// lower-priority work through (see the [`serve`] module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive; always scheduled first.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Batch/background work; runs when nothing more urgent is queued.
    Low,
}

impl Priority {
    /// All priorities, most urgent first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Dense index (0 = most urgent), for per-priority queue arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// A thread-safe cache of built [`ModuleArtifact`]s keyed by **module
/// identity** — the module's canonical binary encoding, so byte-identical
/// modules submitted as separate [`Job`]s (fleets clone their kernels per
/// job) resolve to one shared artifact regardless of who asks first.
///
/// One lives inside every [`Pool::run`]; hold your own in an `Arc` and use
/// [`Pool::run_with_cache`] to keep artifacts warm *across* runs.
#[derive(Default)]
pub struct ArtifactCache {
    map: Mutex<HashMap<Vec<u8>, Arc<ModuleArtifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// The shared artifact for `module`, building (and validating) it on
    /// first sight of this module identity, and whether the lookup was
    /// served from cache (`true`) or built the artifact (`false`) — so
    /// callers sharing one cache across concurrent runs can attribute
    /// traffic to the run that caused it instead of diffing the global
    /// counters.
    ///
    /// The lock is held only for map lookups/inserts, never across a
    /// build: a thread validating a large new module does not stall other
    /// threads' cache hits on unrelated modules. Two threads racing on the
    /// *same* new module may both build it; the first insert wins, the
    /// loser adopts the winner's artifact (so pointer-sharing always
    /// holds) and the duplicate build is discarded — a bounded, transient
    /// cost taken in exchange for an uncontended hit path.
    ///
    /// Each lookup pays one canonical encoding of the module to compute
    /// its identity key — O(module size), the price of content-keyed
    /// identity without trusting pointer or name identity; it is small
    /// against the validation/lowering/compilation the hit skips.
    ///
    /// # Errors
    ///
    /// Returns the [`ValidateError`] if the module is invalid; failures
    /// are not cached (each submission of an invalid module re-reports).
    pub fn lookup(&self, module: &Module) -> Result<(Arc<ModuleArtifact>, bool), ValidateError> {
        let key = wizard_wasm::encode::encode(module);
        if let Some(art) = self.map.lock().expect("artifact cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(art), true));
        }
        let art = Arc::new(ModuleArtifact::new(module.clone())?);
        match self.map.lock().expect("artifact cache poisoned").entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                // Lost the build race: adopt the canonical artifact.
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok((Arc::clone(e.get()), true))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                v.insert(Arc::clone(&art));
                Ok((art, false))
            }
        }
    }

    /// Number of distinct module identities cached.
    pub fn len(&self) -> usize {
        self.map.lock().expect("artifact cache poisoned").len()
    }

    /// `true` if no artifact has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from an already-built artifact.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that built (validated) the artifact.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl core::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("modules", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// One unit of work: a module to instantiate, an exported entry point to
/// call, and (optionally) a monitor to attach for the job's lifetime.
#[derive(Clone)]
pub struct Job {
    /// Display name (job names key nothing; duplicates are fine).
    pub name: String,
    /// The module to instantiate (one process per job).
    pub module: Module,
    /// Exported function to invoke.
    pub entry: String,
    /// Arguments for the entry function.
    pub args: Vec<Value>,
    /// Monitor factory; the monitor is attached before the first slice and
    /// detached (restoring the zero-overhead baseline) before reporting.
    pub monitor: Option<MonitorFactory>,
    /// Linker factory; built on the worker thread at instantiation. Jobs
    /// without one link against an empty [`Linker`].
    pub linker: Option<LinkerFactory>,
    /// Tenant this job bills its fuel to. ([`Pool`] configures no tenant
    /// budgets, so in a batch the name only labels the job.)
    pub tenant: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Relative deadline, measured from admission: a job still running
    /// (or still queued) this long after being accepted is cancelled with
    /// [`JobStatus::DeadlineExceeded`] — in a [`Pool`] batch its
    /// [`JobOutcome::result`] is then an `Err`.
    pub deadline: Option<Duration>,
}

impl Job {
    /// Creates a job with no monitor.
    pub fn new(
        name: impl Into<String>,
        module: Module,
        entry: impl Into<String>,
        args: Vec<Value>,
    ) -> Job {
        Job {
            name: name.into(),
            module,
            entry: entry.into(),
            args,
            monitor: None,
            linker: None,
            tenant: "default".into(),
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Bills the job's fuel to `tenant` (defaults to `"default"`).
    pub fn for_tenant(mut self, tenant: impl Into<String>) -> Job {
        self.tenant = tenant.into();
        self
    }

    /// Sets the scheduling class (defaults to [`Priority::Normal`]).
    pub fn at_priority(mut self, priority: Priority) -> Job {
        self.priority = priority;
        self
    }

    /// Sets a relative deadline from admission; see [`Job::deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> Job {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a linker factory: `make` runs on the worker thread once,
    /// when the job's process is instantiated — e.g.
    /// `move || Shims::standard().linker_for(&module).unwrap()` for
    /// corpus modules that import host functions.
    pub fn with_linker(mut self, make: impl Fn() -> Linker + Send + Sync + 'static) -> Job {
        self.linker = Some(Arc::new(make));
        self
    }

    /// Attaches a monitor factory: `make` runs on the worker thread once,
    /// when the job's process is instantiated.
    pub fn with_monitor<M: Monitor + 'static>(
        mut self,
        make: impl Fn() -> M + Send + Sync + 'static,
    ) -> Job {
        self.monitor =
            Some(Arc::new(move || Rc::new(RefCell::new(make())) as Rc<RefCell<dyn Monitor>>));
        self
    }

    /// Attaches an existing (possibly shared) [`MonitorFactory`]. This is
    /// how *data-driven* instrumentation reaches a fleet: e.g.
    /// `wizard_script::monitor_factory` compiles a script source once and
    /// the resulting factory builds a fresh script monitor per job, on
    /// that job's worker thread.
    pub fn with_monitor_factory(mut self, factory: MonitorFactory) -> Job {
        self.monitor = Some(factory);
        self
    }
}

impl core::fmt::Debug for Job {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("entry", &self.entry)
            .field("monitored", &self.monitor.is_some())
            .field("tenant", &self.tenant)
            .field("priority", &self.priority)
            .finish()
    }
}

/// The result of one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's name.
    pub name: String,
    /// Which worker finalized it.
    pub shard: usize,
    /// The entry function's results, or why there are none: a validation,
    /// link or monitor-attach error, a trap, or a missed deadline.
    pub result: Result<Vec<Value>, String>,
    /// The monitor's final report (after detach), if one was attached.
    pub report: Option<Report>,
    /// The process's engine counters at job completion.
    pub stats: EngineStats,
    /// Fuel slices the job consumed (≥ 1 for a job that ran).
    pub slices: u64,
}

/// The aggregated result of a pool run.
#[derive(Debug, Clone)]
pub struct PoolOutcome {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Fleet-wide counters: [`EngineStats::merge`] over all jobs, plus the
    /// run's artifact-cache traffic and scheduler counters
    /// ([`ServeEngine::stats`]).
    pub stats: EngineStats,
    /// Monitor reports folded by title with [`Report::merge`]: all jobs
    /// running the same analysis contribute to one aggregate report.
    ///
    /// Merging is label-keyed, so scalar totals (e.g. a summary section's
    /// counts) are always meaningful sums; per-*location* rows only
    /// aggregate meaningfully when the jobs run the same program. Reports
    /// fold in completion order, which decides the order of rows and of
    /// titles, never a value.
    pub merged_reports: Vec<Report>,
}

impl PoolOutcome {
    /// The merged report with this title, if any job produced one.
    pub fn merged_report(&self, title: &str) -> Option<&Report> {
        self.merged_reports.iter().find(|r| r.title == title)
    }

    /// `true` if every job completed without a link error or trap.
    pub fn all_ok(&self) -> bool {
        self.jobs.iter().all(|j| j.result.is_ok())
    }
}

/// A batch of jobs run to completion over a private [`ServeEngine`]; see
/// the crate docs.
pub struct Pool {
    config: PoolConfig,
    jobs: Vec<Job>,
}

impl Pool {
    /// Creates an empty pool.
    pub fn new(config: PoolConfig) -> Pool {
        Pool { config, jobs: Vec::new() }
    }

    /// Queues a job.
    pub fn submit(&mut self, job: Job) {
        self.jobs.push(job);
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every queued job to completion and aggregates the fleet's
    /// statistics and monitor reports.
    ///
    /// The batch is submitted whole to a private [`ServeEngine`] with
    /// `shards` workers and drained: jobs are scheduled exactly as served
    /// jobs are (priorities, tenants, deadlines, work stealing, fuel
    /// slices of `fuel_slice` instructions). The call blocks until the
    /// whole fleet has finished.
    ///
    /// Per-job failures — invalid modules, link errors, monitor attach
    /// errors, traps, missed deadlines — are reported in that job's
    /// [`JobOutcome::result`] and never affect the rest of the fleet.
    ///
    /// Caveat: instantiation (including a module's *start function*) runs
    /// unmetered, before slicing begins. Fuel fairness applies from the
    /// first `run_export_bounded` turn onward; a hostile start function
    /// can stall its worker during setup.
    pub fn run(self) -> PoolOutcome {
        self.run_with_cache(&Arc::new(ArtifactCache::new()))
    }

    /// As [`Pool::run`], but instantiating through a caller-owned
    /// [`ArtifactCache`] — artifacts built (or found) in this run stay in
    /// the cache, so a long-lived server reuses them across successive
    /// fleets instead of re-validating its kernels every run.
    pub fn run_with_cache(self, cache: &Arc<ArtifactCache>) -> PoolOutcome {
        let engine = ServeEngine::with_cache(
            ServeConfig {
                workers: self.config.shards.max(1),
                engine: self.config.engine,
                // The whole batch is admitted before anything is awaited.
                queue_capacity: self.jobs.len().max(1),
                ..ServeConfig::default()
            },
            Arc::clone(cache),
        );
        // An unadmitted job keeps its place in submission order as
        // (name, error).
        let admitted: Vec<Result<JobHandle, (String, String)>> = self
            .jobs
            .into_iter()
            .map(|job| match engine.try_submit(job) {
                Submit::Accepted(handle) => Ok(handle),
                Submit::Invalid { job, error } => Err((job.name, format!("link error: {error}"))),
                // Unreachable by construction (the queue holds the batch
                // and nobody else can close this engine), but a job is
                // never dropped silently.
                Submit::Rejected(job) | Submit::Closed(job) => {
                    Err((job.name, "not admitted".into()))
                }
            })
            .collect();
        let jobs = admitted
            .into_iter()
            .map(|admission| match admission {
                Ok(handle) => JobOutcome::from_served(handle.wait()),
                Err((name, error)) => JobOutcome {
                    name,
                    shard: 0,
                    result: Err(error),
                    report: None,
                    stats: EngineStats::default(),
                    slices: 0,
                },
            })
            .collect();
        let ServeSummary { stats, merged_reports, .. } = engine.shutdown();
        PoolOutcome { jobs, stats, merged_reports }
    }
}

impl JobOutcome {
    /// The batch view of a served job: every terminal status but `Done`
    /// is an error string.
    fn from_served(out: ServeOutcome) -> JobOutcome {
        let result = match out.status {
            JobStatus::Done(values) => Ok(values),
            JobStatus::Failed(error) => Err(error),
            JobStatus::Cancelled => Err("cancelled".into()),
            JobStatus::DeadlineExceeded => Err("deadline exceeded".into()),
        };
        JobOutcome {
            name: out.name,
            shard: out.worker,
            result,
            report: out.report,
            stats: out.stats,
            slices: out.slices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_monitors::HotnessMonitor;
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    fn sum_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        f.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
        });
        f.local_get(acc);
        mb.add_func("run", f);
        mb.build().unwrap()
    }

    fn fleet(pool: &mut Pool, n: usize, arg: i32, monitored: bool) {
        for k in 0..n {
            let mut job = Job::new(format!("sum-{k}"), sum_module(), "run", vec![Value::I32(arg)]);
            if monitored {
                job = job.with_monitor(HotnessMonitor::new);
            }
            pool.submit(job);
        }
    }

    #[test]
    fn fleet_results_are_correct_across_shard_counts() {
        for shards in [1usize, 2, 4] {
            let config =
                PoolConfig { shards, engine: EngineConfig::builder().fuel_slice(500).build() };
            let mut pool = Pool::new(config);
            // ~7 instructions per iteration: even the 8x slice a lone
            // runnable job is granted (4 000 fuel) cannot finish a job.
            fleet(&mut pool, 8, 1_000, false);
            let outcome = pool.run();
            assert_eq!(outcome.jobs.len(), 8);
            assert!(outcome.all_ok());
            for j in &outcome.jobs {
                assert_eq!(j.result, Ok(vec![Value::I32(499_500)]), "{} wrong", j.name);
                assert!(j.slices >= 2, "{} was never preempted", j.name);
            }
            assert!(outcome.stats.suspensions > 0);
            assert!(outcome.stats.fuel_consumed > 0);
            // The artifact cache resolves all 8 byte-identical modules to
            // one shared artifact: one build, 7 hits — regardless of which
            // worker ran which job — and the single shared function
            // is lowered exactly once for the whole fleet.
            assert_eq!(outcome.stats.artifact_cache_misses, 1);
            assert_eq!(outcome.stats.artifact_cache_hits, 7);
            assert_eq!(outcome.stats.functions_lowered, 1);
            assert_eq!(outcome.stats.relower_passes, 0);
            // Nobody probed anything: zero copy-on-write copies were made.
            assert_eq!(outcome.stats.overlay_copies, 0);
            // Jobs come back in submission order, not completion order.
            let names: Vec<&str> = outcome.jobs.iter().map(|j| j.name.as_str()).collect();
            assert_eq!(names, (0..8).map(|k| format!("sum-{k}")).collect::<Vec<_>>());
        }
    }

    #[test]
    fn monitor_reports_merge_across_the_fleet() {
        let config =
            PoolConfig { shards: 2, engine: EngineConfig::builder().fuel_slice(300).build() };
        let mut pool = Pool::new(config);
        fleet(&mut pool, 6, 50, true);
        let outcome = pool.run();
        assert!(outcome.all_ok());

        // Every job carries its own exact report...
        let per_job: Vec<u64> = outcome
            .jobs
            .iter()
            .map(|j| {
                j.report
                    .as_ref()
                    .and_then(|r| r.get("summary"))
                    .and_then(|s| s.count_of("total instruction executions"))
                    .expect("hotness report")
            })
            .collect();
        assert!(per_job.iter().all(|&n| n > 0));
        // ...identical across jobs (same program, same slicing-transparent
        // instrumentation)...
        assert!(per_job.windows(2).all(|w| w[0] == w[1]));

        // ...and the pool merges them into one fleet-wide report.
        let merged = outcome.merged_report("hotness").expect("merged hotness report");
        assert_eq!(
            merged.get("summary").unwrap().count_of("total instruction executions"),
            Some(per_job.iter().sum()),
        );
        assert_eq!(outcome.merged_reports.len(), 1, "one analysis → one merged report");
    }

    #[test]
    fn monitored_fleets_pay_copy_on_write_only_for_what_they_probe() {
        let config =
            PoolConfig { shards: 2, engine: EngineConfig::builder().fuel_slice(300).build() };
        let mut pool = Pool::new(config);
        // 3 monitored + 3 unmonitored jobs of the same module.
        fleet(&mut pool, 3, 50, true);
        fleet(&mut pool, 3, 50, false);
        let outcome = pool.run();
        assert!(outcome.all_ok());
        // One shared artifact for all six jobs...
        assert_eq!(outcome.stats.artifact_cache_misses, 1);
        assert_eq!(outcome.stats.artifact_cache_hits, 5);
        // ...each monitored job copy-on-wrote the (single) function it
        // probed; unmonitored jobs copied nothing. Detach at job end
        // rejoined the artifact, so the copies were transient.
        assert_eq!(outcome.stats.overlay_copies, 3);
        for j in &outcome.jobs {
            let monitored = j.report.is_some();
            assert_eq!(j.stats.overlay_copies, u64::from(monitored), "{}", j.name);
        }
    }

    #[test]
    fn caller_owned_cache_stays_warm_across_runs() {
        let cache = Arc::new(ArtifactCache::new());
        for run in 0..2 {
            let mut pool = Pool::new(PoolConfig::default());
            fleet(&mut pool, 4, 20, false);
            let outcome = pool.run_with_cache(&cache);
            assert!(outcome.all_ok());
            if run == 0 {
                assert_eq!(outcome.stats.artifact_cache_misses, 1);
                assert_eq!(outcome.stats.artifact_cache_hits, 3);
            } else {
                // Second fleet: the artifact survived the first run.
                assert_eq!(outcome.stats.artifact_cache_misses, 0);
                assert_eq!(outcome.stats.artifact_cache_hits, 4);
            }
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn link_errors_are_reported_not_fatal() {
        let mut bad = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[], &[]);
        f.nop();
        bad.add_func("run", f);
        let mut bad = bad.build().unwrap();
        // Corrupt: import a function nobody links.
        bad.imports.push(wizard_wasm::module::Import {
            module: "missing".into(),
            name: "f".into(),
            desc: wizard_wasm::module::ImportDesc::Func(0),
        });

        // Invalid: rejected at admission, before any worker sees it.
        let mut invalid = sum_module();
        invalid.exports.push(wizard_wasm::module::Export {
            name: "phantom".into(),
            kind: wizard_wasm::types::ExternKind::Func,
            index: 999,
        });

        let mut pool = Pool::new(PoolConfig::default());
        pool.submit(Job::new("bad", bad, "run", vec![]));
        pool.submit(Job::new("good", sum_module(), "run", vec![Value::I32(5)]));
        pool.submit(Job::new("invalid", invalid, "run", vec![]));
        let outcome = pool.run();
        assert_eq!(outcome.jobs.len(), 3);
        assert!(outcome.jobs[0].result.as_ref().unwrap_err().contains("link error"));
        assert_eq!(outcome.jobs[1].result, Ok(vec![Value::I32(10)]));
        assert!(outcome.jobs[2].result.as_ref().unwrap_err().contains("link error"));
    }

    #[test]
    fn a_missed_deadline_fails_only_its_job() {
        // The batch front passes `Job::deadline` through to the scheduler.
        let mut pool = Pool::new(PoolConfig::default());
        pool.submit(Job::new("fine-0", sum_module(), "run", vec![Value::I32(5)]));
        pool.submit(
            Job::new("late", sum_module(), "run", vec![Value::I32(5)])
                .with_deadline(Duration::ZERO),
        );
        pool.submit(Job::new("fine-1", sum_module(), "run", vec![Value::I32(4)]));
        let outcome = pool.run();
        assert_eq!(outcome.jobs[0].result, Ok(vec![Value::I32(10)]));
        assert_eq!(outcome.jobs[1].result, Err("deadline exceeded".into()));
        assert_eq!(outcome.jobs[1].slices, 0, "a pre-expired job never takes a slice");
        assert_eq!(outcome.jobs[2].result, Ok(vec![Value::I32(6)]));
        assert!(!outcome.all_ok());
    }

    #[test]
    fn monitor_attach_errors_fail_only_their_job() {
        use wizard_engine::{InstrumentationCtx, ProbeError, Report};

        /// A monitor whose attach always fails (probes a bogus location).
        struct Broken;
        impl wizard_engine::Monitor for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
                let func = ctx.module().num_funcs(); // out of range
                ctx.add_local_probe_val(func, 0, wizard_engine::EmptyProbe)?;
                Ok(())
            }
            fn report(&self) -> Report {
                Report::new("broken")
            }
        }

        let mut pool = Pool::new(PoolConfig::default());
        pool.submit(
            Job::new("doomed", sum_module(), "run", vec![Value::I32(5)]).with_monitor(|| Broken),
        );
        pool.submit(Job::new("fine", sum_module(), "run", vec![Value::I32(5)]));
        let outcome = pool.run();
        assert_eq!(outcome.jobs.len(), 2);
        assert!(outcome.jobs[0].result.as_ref().unwrap_err().contains("monitor attach error"));
        assert_eq!(outcome.jobs[1].result, Ok(vec![Value::I32(10)]));
    }

    #[test]
    fn traps_surface_per_job() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[], &[I32]);
        f.i32_const(1).i32_const(0).i32_div_s();
        mb.add_func("run", f);
        let m = mb.build().unwrap();

        let mut pool = Pool::new(PoolConfig::default());
        pool.submit(Job::new("trapper", m, "run", vec![]));
        pool.submit(Job::new("fine", sum_module(), "run", vec![Value::I32(4)]));
        let outcome = pool.run();
        assert!(outcome.jobs[0].result.as_ref().unwrap_err().contains("divide by zero"));
        assert_eq!(outcome.jobs[1].result, Ok(vec![Value::I32(6)]));
        assert!(!outcome.all_ok());
    }
}
