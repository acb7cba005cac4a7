//! Deterministic parallel sweep execution.
//!
//! Every run in the evaluation suite is independent — each builds its own
//! [`dresar::system::System`] (or trace simulator) from a config and a
//! workload — so the suite shards across cores. The contract that makes
//! this safe to put under the regression gate: **output is byte-identical
//! to a serial execution**. The runner guarantees it structurally:
//!
//! * jobs are closures with no shared mutable state (each constructs its
//!   simulator inside the worker thread);
//! * results land in a slot table indexed by submission order, so assembly
//!   never observes completion order;
//! * anything order-dependent downstream (the `runs` array of
//!   `BENCH_dresar.json`) is sorted by run name, same as the serial path.
//!
//! Thread count comes from `DRESAR_SWEEP_THREADS` (0 or unset → one per
//! available core); `DRESAR_SWEEP_THREADS=1` forces serial execution,
//! which CI uses on one leg of the identity check.

use crate::{run_one_faulted, run_one_observed, run_one_registry, Bench, Driver, Metrics};
use dresar_faults::FaultPlan;
use dresar_interconnect::{routes, Bmin, FlitNetwork};
use dresar_obs::{
    Heatmap, LatencyBreakdown, MetricValue, MetricsRegistry, ObserverConfig, RunTiming,
    DEFAULT_ATTRIB_WINDOW,
};
use dresar_types::config::SystemConfig;
use dresar_types::{JsonValue, ToJson};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A boxed sweep job: runs once on a worker thread, yielding `R`.
pub type Job<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// One named deterministic run in a `bench_report` document.
pub struct RunResult {
    /// Run name, `<workload>.<config>` (e.g. `"FFT.sd1024"`).
    pub name: String,
    /// The run's deterministic component-metrics registry.
    pub metrics: MetricsRegistry,
}

/// Sweep thread count: `DRESAR_SWEEP_THREADS` if set and nonzero, else one
/// per available core.
pub fn thread_count() -> usize {
    match std::env::var("DRESAR_SWEEP_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map(|c| c.get()).unwrap_or(4),
    }
}

/// Runs independent jobs across a worker pool, returning results in
/// submission order regardless of completion order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// Runner sized by [`thread_count`] (env override, else core count).
    pub fn from_env() -> Self {
        SweepRunner { threads: thread_count() }
    }

    /// Runner that executes jobs one after another on the calling thread.
    pub fn serial() -> Self {
        SweepRunner { threads: 1 }
    }

    /// Runner with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner { threads: threads.max(1) }
    }

    /// This runner's worker count (what [`ServicePool::start`] sizes its
    /// persistent pool by).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item through [`SweepRunner::run_jobs`],
    /// returning the results in item order.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let f = &f;
        self.run_jobs(items.iter().map(|x| -> Job<'_, R> { Box::new(move || f(x)) }).collect())
    }

    /// Executes `jobs`, returning the `i`-th job's result at index `i`.
    ///
    /// # Panics
    /// If any job panics, panics once — after every worker has stopped —
    /// with a structured message naming the panicked jobs and how many
    /// results were produced, instead of the historical double panic (a
    /// poisoned worker join aborting mid-unwind). Callers that want the
    /// panics as data use [`SweepRunner::try_run_jobs`].
    pub fn run_jobs<'a, R: Send>(&self, jobs: Vec<Job<'a, R>>) -> Vec<R> {
        match self.try_run_jobs(jobs) {
            Ok(results) => results,
            Err(report) => panic!("{report}"),
        }
    }

    /// [`SweepRunner::run_jobs`], but job panics come back as data: every
    /// panicking job is caught on its worker (the worker then continues
    /// with the next job), and the error lists each panicked job's index
    /// and payload plus how many completed results were discarded.
    pub fn try_run_jobs<'a, R: Send>(
        &self,
        jobs: Vec<Job<'a, R>>,
    ) -> Result<Vec<R>, SweepPanicReport> {
        let n = jobs.len();
        if self.threads <= 1 || n <= 1 {
            let mut results = Vec::with_capacity(n);
            let mut panics = Vec::new();
            for (i, job) in jobs.into_iter().enumerate() {
                match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(r) => results.push(r),
                    Err(payload) => {
                        panics.push(JobPanic { job: i, message: panic_message(&*payload) })
                    }
                }
            }
            if panics.is_empty() {
                return Ok(results);
            }
            return Err(SweepPanicReport { panics, completed: results.len() });
        }
        let workers = self.threads.min(n);
        // FnOnce must be moved out to call; parking each job in its own
        // mutex slot lets borrowing worker threads claim them one by one.
        let slots: Vec<Mutex<Option<Job<'a, R>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panics: Vec<JobPanic> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let slots = &slots;
                    let cursor = &cursor;
                    s.spawn(move || {
                        let mut done = Vec::new();
                        let mut failed = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return (done, failed);
                            }
                            let job = slots[i]
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .take()
                                .expect("sweep job claimed twice");
                            // A panicking job is contained here: the worker
                            // records it and moves on to the next slot, so
                            // one bad job never strands the rest of the
                            // batch or poisons the join below.
                            match catch_unwind(AssertUnwindSafe(job)) {
                                Ok(r) => done.push((i, r)),
                                Err(payload) => failed
                                    .push(JobPanic { job: i, message: panic_message(&*payload) }),
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                // Workers can no longer die from a job panic; an Err here
                // means the thread was killed some other way (e.g. abort).
                // Record it instead of double-panicking mid-drain.
                match h.join() {
                    Ok((done, failed)) => {
                        for (i, r) in done {
                            results[i] = Some(r);
                        }
                        panics.extend(failed);
                    }
                    Err(payload) => {
                        panics.push(JobPanic { job: usize::MAX, message: panic_message(&*payload) })
                    }
                }
            }
        });
        if panics.is_empty() {
            return Ok(results
                .into_iter()
                .map(|r| r.expect("sweep job produced no result"))
                .collect());
        }
        panics.sort_by_key(|p| p.job);
        let completed = results.iter().filter(|r| r.is_some()).count();
        Err(SweepPanicReport { panics, completed })
    }
}

/// One job that panicked inside [`SweepRunner::try_run_jobs`].
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// Submission index of the panicked job (`usize::MAX` when a worker
    /// thread itself died outside any job — only possible via abort).
    pub job: usize,
    /// The panic payload, stringified.
    pub message: String,
}

/// Structured account of a sweep batch that lost jobs to panics.
#[derive(Debug, Clone)]
pub struct SweepPanicReport {
    /// Every panicked job, sorted by submission index.
    pub panics: Vec<JobPanic>,
    /// How many jobs completed and produced a (discarded) result.
    pub completed: usize,
}

impl std::fmt::Display for SweepPanicReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sweep job(s) panicked ({} completed results discarded):",
            self.panics.len(),
            self.completed
        )?;
        for p in &self.panics {
            if p.job == usize::MAX {
                write!(f, " [worker died: {}]", p.message)?;
            } else {
                write!(f, " [job {}: {}]", p.job, p.message)?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for SweepPanicReport {}

/// Stringifies a caught panic payload (the `&str`/`String` forms `panic!`
/// produces; anything else becomes an opaque marker).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one fallible job body under a panic guard, converting an unwind
/// into [`SubmitError::JobPanicked`]. This is the per-job isolation the
/// serving layer wraps engine executions in: the worker thread survives,
/// and the panic becomes a structured error the request path can serve as
/// an HTTP 500 instead of a dead pool.
pub fn catch_job_panic<R>(f: impl FnOnce() -> R) -> Result<R, SubmitError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| SubmitError::JobPanicked { message: panic_message(&*payload) })
}

/// The standard `bench_report` run set, executed through `runner`: every
/// suite workload at base and 1K-entry switch directory, the degraded-SD
/// robustness run, and the crossbar validation batch. Returns the runs
/// sorted by name plus the per-run host wall-clock breakdown (timings are
/// in job-submission order; their names are deterministic, the seconds are
/// host measurements).
pub fn standard_runs(benches: &[Bench], runner: SweepRunner) -> (Vec<RunResult>, Vec<RunTiming>) {
    // One job per workload chain: the degraded run's fault schedule is
    // derived from the sd1024 cycle count, so the three runs of one
    // workload are sequential by construction; distinct workloads shard.
    let mut jobs: Vec<Job<'_, Vec<(RunResult, f64)>>> = Vec::new();
    for b in benches {
        jobs.push(Box::new(move || workload_chain(b)));
    }
    jobs.push(Box::new(|| {
        let t0 = Instant::now();
        let metrics = crossbar_validation();
        vec![(RunResult { name: "xbar.validation".into(), metrics }, t0.elapsed().as_secs_f64())]
    }));
    let mut runs = Vec::new();
    let mut timings = Vec::new();
    for chain in runner.run_jobs(jobs) {
        for (run, seconds) in chain {
            timings.push(RunTiming { name: run.name.clone(), wall_seconds: seconds });
            runs.push(run);
        }
    }
    runs.sort_by(|a, b| a.name.cmp(&b.name));
    (runs, timings)
}

/// One workload's sequential run chain: base, sd1024, then the degraded-SD
/// run whose fault point derives from the sd1024 cycle count.
fn workload_chain(b: &Bench) -> Vec<(RunResult, f64)> {
    let mut out = Vec::new();
    let mut sd1024_cycles = 0u64;
    for (tag, sd) in [("base", None), ("sd1024", Some(1024))] {
        let t0 = Instant::now();
        let metrics = run_one_registry(b, sd);
        let seconds = t0.elapsed().as_secs_f64();
        if tag == "sd1024" {
            if let Some(MetricValue::Counter(c)) = metrics.get("sim.cycles") {
                sd1024_cycles = *c;
            }
        }
        out.push((RunResult { name: format!("{}.{}", b.label, tag), metrics }, seconds));
    }
    let t0 = Instant::now();
    if let Some(m) = sd_degraded_run(b, sd1024_cycles) {
        out.push((
            RunResult { name: format!("{}.sd-degraded", b.label), metrics: m },
            t0.elapsed().as_secs_f64(),
        ));
    }
    out
}

/// One observed run in a `--heatmap` document: the figure metrics, the
/// per-phase read-latency breakdown, and the topology contention heatmap.
pub struct HeatmapRun {
    /// Run name, `<workload>.<config>` (same scheme as [`RunResult`]).
    pub name: String,
    /// The run's figure metrics.
    pub metrics: Metrics,
    /// Per-phase latency breakdown (phase sums telescope to
    /// `reads.latency_cycles` exactly, which is what lets `dresar_diff`
    /// attribute a cycle delta with zero residual).
    pub breakdown: LatencyBreakdown,
    /// Per-resource contention attribution.
    pub heatmap: Heatmap,
}

impl ToJson for HeatmapRun {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("name", self.name.as_str())
            .field("metrics", self.metrics.to_json())
            .field("breakdown", self.breakdown.to_json())
            .field("heatmap", self.heatmap.to_json())
            .build()
    }
}

/// The `--heatmap` run set, executed through `runner`: every
/// execution-driven suite workload at base and 1K-entry switch directory,
/// with the latency-breakdown and contention-attribution observers on.
/// Trace-driven workloads are skipped — the constant-latency model has no
/// topology to attribute. Runs come back sorted by name, and the output is
/// byte-identical across thread counts for the same reasons as
/// [`standard_runs`] (independent jobs, submission-order slots, name sort).
pub fn heatmap_runs(benches: &[Bench], runner: SweepRunner) -> Vec<HeatmapRun> {
    let observers = ObserverConfig {
        latency_breakdown: true,
        heatmap_window: Some(DEFAULT_ATTRIB_WINDOW),
        ..Default::default()
    };
    let mut jobs: Vec<Job<'_, Option<HeatmapRun>>> = Vec::new();
    for b in benches.iter().filter(|b| b.driver == Driver::Execution) {
        for (tag, sd) in [("base", None), ("sd1024", Some(1024))] {
            jobs.push(Box::new(move || {
                let (metrics, obs) = run_one_observed(b, sd, observers);
                let obs = obs?;
                Some(HeatmapRun {
                    name: format!("{}.{}", b.label, tag),
                    metrics,
                    breakdown: obs.breakdown?,
                    heatmap: obs.heatmap?,
                })
            }));
        }
    }
    let mut runs: Vec<HeatmapRun> = runner.run_jobs(jobs).into_iter().flatten().collect();
    runs.sort_by(|a, b| a.name.cmp(&b.name));
    runs
}

/// Informational robustness run: the sd1024 configuration with the switch
/// directories disabled half-way through (derived deterministically from
/// the healthy run's cycle count), exercising the degraded home-directory
/// fallback. The registry carries the fault/watchdog/coherence counters, so
/// the regression gate also pins down the fault-injection schedule itself.
pub fn sd_degraded_run(b: &Bench, sd1024_cycles: u64) -> Option<MetricsRegistry> {
    if sd1024_cycles == 0 {
        return None; // trace-driven workload: no fault machinery
    }
    let plan = FaultPlan { disable_at: (sd1024_cycles / 2).max(1), ..FaultPlan::default() };
    let report = run_one_faulted(b, Some(1024), plan)?;
    let mut m = report.metrics;
    if let Some(c) = &report.coherence {
        m.counter("coherence.ok", u64::from(c.ok()));
        m.counter("coherence.blocks_checked", c.blocks_checked);
    }
    Some(m)
}

/// A deterministic flit-level batch through the full 16-node BMIN: 32
/// messages on fixed routes, run to drain. This is the one place the
/// cycle-accurate [`FlitNetwork`] arbitration counters surface in telemetry
/// (the execution-driven system uses the analytical hop model instead).
pub fn crossbar_validation() -> MetricsRegistry {
    let bmin = Bmin::new(16, 4);
    let cfg = SystemConfig::paper_table2().switch;
    let mut net = FlitNetwork::new(bmin, cfg);
    for p in 0..16u8 {
        net.inject(p as u64, &routes::forward(&bmin, p, (p + 5) % 16), 1)
            .expect("fixed validation route");
        net.inject(100 + p as u64, &routes::backward(&bmin, (p + 5) % 16, p), 5)
            .expect("fixed validation route");
    }
    let delivered = net.run_until_drained(100_000).len() as u64;
    let s = net.arbiter_stats();
    let mut m = MetricsRegistry::new();
    m.counter("xbar.deliveries", delivered);
    m.counter("xbar.cycles", net.now());
    m.counter("xbar.grants", s.grants);
    m.counter("xbar.conflicts", s.conflicts);
    m.counter("xbar.lock_blocked", s.lock_blocked);
    m.counter("xbar.offers_refused", s.offers_refused);
    m
}

/// Why a [`ServicePool`] job could not produce a result: refused at
/// submission ([`SubmitError::QueueFull`] / [`SubmitError::ShuttingDown`])
/// or lost to a contained panic during execution
/// ([`SubmitError::JobPanicked`], produced by [`catch_job_panic`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded admission queue is at capacity: shed the request.
    QueueFull {
        /// The configured queue bound the submission ran into.
        queue_depth: usize,
    },
    /// The pool is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The job panicked mid-execution. The panic was contained by the
    /// worker (the pool keeps serving); the payload is preserved so the
    /// caller can report a structured error instead of a dead connection.
    JobPanicked {
        /// The stringified panic payload.
        message: String,
    },
}

/// A persistent, bounded worker pool: the serving counterpart of the
/// batch-oriented [`SweepRunner`].
///
/// Where `run_jobs` executes one closed batch and returns, a long-lived
/// service needs *admission control*: a fixed-depth queue whose overflow is
/// reported to the caller (so the server can shed load with a structured
/// error instead of buffering unboundedly) and a graceful drain that
/// finishes queued work before the workers exit. The pool is sized by a
/// [`SweepRunner`] (so `DRESAR_SWEEP_THREADS` governs serving concurrency
/// exactly like sweep concurrency) and runs the same boxed-job shape.
///
/// A pool started paused holds its workers idle until `resume`, without
/// touching the queue — the server's `start_paused` uses this to hold jobs
/// queued while concurrent requests pile up, making coalescing and
/// shedding assertions deterministic instead of racy.
#[derive(Debug)]
pub struct ServicePool {
    inner: std::sync::Arc<PoolShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

#[derive(Debug)]
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for jobs (or for a resume/drain signal).
    takeable: std::sync::Condvar,
    /// `drain` waits here for the queue to empty and workers to go idle.
    drained: std::sync::Condvar,
    queue_depth: usize,
}

#[derive(Default)]
struct PoolState {
    queue: std::collections::VecDeque<Box<dyn FnOnce() + Send>>,
    paused: bool,
    stopping: bool,
    /// Jobs currently executing on a worker.
    active: usize,
    /// High-water mark of queued-plus-active jobs.
    peak_depth: u64,
    /// Total jobs accepted over the pool's lifetime.
    scheduled: u64,
    /// Jobs whose panic a worker contained (the worker kept running).
    panics: u64,
}

impl std::fmt::Debug for PoolState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolState")
            .field("queued", &self.queue.len())
            .field("paused", &self.paused)
            .field("stopping", &self.stopping)
            .field("active", &self.active)
            .field("peak_depth", &self.peak_depth)
            .field("scheduled", &self.scheduled)
            .field("panics", &self.panics)
            .finish()
    }
}

/// What [`ServicePool::drain`] observed while shutting the pool down —
/// surfaced as data so a supervisor can report which workers were lost and
/// how many jobs were abandoned, instead of the historical double panic
/// (`expect` on a poisoned join while already unwinding).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Job panics contained by workers over the pool's lifetime.
    pub worker_panics: u64,
    /// Worker threads that died outside the per-job guard (only possible
    /// via a non-unwinding kill; a contained panic never loses a worker).
    pub workers_lost: usize,
    /// Queued jobs discarded because no live worker remained to run them.
    pub jobs_abandoned: usize,
}

impl DrainReport {
    /// Whether the drain completed without losing a worker or a job.
    pub fn clean(&self) -> bool {
        self.workers_lost == 0 && self.jobs_abandoned == 0
    }
}

impl ServicePool {
    /// Starts `runner.threads()` workers servicing a queue bounded at
    /// `queue_depth` jobs (clamped to at least 1). With `paused` the
    /// workers idle until [`ServicePool::resume`]; submissions still queue.
    pub fn start(runner: SweepRunner, queue_depth: usize, paused: bool) -> Self {
        let inner = std::sync::Arc::new(PoolShared {
            state: Mutex::new(PoolState { paused, ..PoolState::default() }),
            takeable: std::sync::Condvar::new(),
            drained: std::sync::Condvar::new(),
            queue_depth: queue_depth.max(1),
        });
        let workers = (0..runner.threads())
            .map(|_| {
                let shared = std::sync::Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ServicePool { inner, workers: Mutex::new(workers) }
    }

    /// Queues one job, or reports why it cannot be accepted. Never blocks.
    pub fn try_submit(&self, job: Box<dyn FnOnce() + Send>) -> Result<(), SubmitError> {
        let mut st = lock_pool(&self.inner.state);
        if st.stopping {
            return Err(SubmitError::ShuttingDown);
        }
        if st.queue.len() >= self.inner.queue_depth {
            return Err(SubmitError::QueueFull { queue_depth: self.inner.queue_depth });
        }
        st.queue.push_back(job);
        st.scheduled += 1;
        st.peak_depth = st.peak_depth.max((st.queue.len() + st.active) as u64);
        drop(st);
        self.inner.takeable.notify_one();
        Ok(())
    }

    /// Releases paused workers.
    pub fn resume(&self) {
        lock_pool(&self.inner.state).paused = false;
        self.inner.takeable.notify_all();
    }

    /// `(queued + active, peak, scheduled)` — the admission gauges the
    /// server exports as `serve.queue_depth` and `serve.scheduled`.
    pub fn depth(&self) -> (u64, u64, u64) {
        let st = lock_pool(&self.inner.state);
        ((st.queue.len() + st.active) as u64, st.peak_depth, st.scheduled)
    }

    /// Job panics contained by the workers so far (each one left the
    /// worker alive and the pool serving — exported as
    /// `serve.worker_panics`).
    pub fn panics(&self) -> u64 {
        lock_pool(&self.inner.state).panics
    }

    /// Graceful drain: stops admissions, runs every queued job to
    /// completion (resuming paused workers), then joins the workers.
    ///
    /// Returns what happened as data. Contained job panics do not disturb
    /// the drain (the workers that caught them are joined normally); if
    /// every worker was lost to a non-unwinding kill while jobs were still
    /// queued, those jobs are abandoned and counted rather than waited on
    /// forever.
    pub fn drain(&self) -> DrainReport {
        {
            let mut st = lock_pool(&self.inner.state);
            st.stopping = true;
            st.paused = false;
        }
        self.inner.takeable.notify_all();
        let mut st = lock_pool(&self.inner.state);
        let mut jobs_abandoned = 0usize;
        while !st.queue.is_empty() || st.active > 0 {
            // Bounded wait so worker liveness is re-checked: if no worker
            // thread remains to run the queue down, waiting on `drained`
            // would hang forever — abandon the queue instead and report it.
            let (guard, _) = self
                .inner
                .drained
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
            let all_dead =
                lock_pool_list(&self.workers).iter().all(std::thread::JoinHandle::is_finished);
            if all_dead && st.active == 0 && !st.queue.is_empty() {
                jobs_abandoned = st.queue.len();
                st.queue.clear();
                break;
            }
        }
        let worker_panics = st.panics;
        drop(st);
        let mut workers_lost = 0usize;
        for w in lock_pool_list(&self.workers).drain(..) {
            if w.join().is_err() {
                workers_lost += 1;
            }
        }
        DrainReport { worker_panics, workers_lost, jobs_abandoned }
    }
}

/// Poison-tolerant pool-state lock: a panic elsewhere must degrade to a
/// contained, counted error — never cascade into every pool operation.
fn lock_pool(m: &Mutex<PoolState>) -> std::sync::MutexGuard<'_, PoolState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_pool_list(
    m: &Mutex<Vec<std::thread::JoinHandle<()>>>,
) -> std::sync::MutexGuard<'_, Vec<std::thread::JoinHandle<()>>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = lock_pool(&shared.state);
            loop {
                if !st.paused {
                    if let Some(job) = st.queue.pop_front() {
                        st.active += 1;
                        break job;
                    }
                    if st.stopping {
                        return;
                    }
                } else if st.stopping {
                    // Drain resumes before stopping; a paused stop still
                    // exits once the queue has been run down.
                    st.paused = false;
                    continue;
                }
                st = shared.takeable.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Contain a panicking job here: the worker survives (in-place
        // respawn — same thread, fresh job), `active` is decremented on
        // every path so a panic can never leak an active count and hang
        // the drain, and the panic is counted for `serve.worker_panics`.
        let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
        let mut st = lock_pool(&shared.state);
        st.active -= 1;
        if panicked {
            st.panics += 1;
        }
        if st.queue.is_empty() && st.active == 0 {
            shared.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_jobs_preserves_submission_order() {
        let jobs: Vec<Job<'static, usize>> = (0..32)
            .map(|i| {
                let b: Job<'static, usize> = Box::new(move || {
                    // Stagger so late submissions often finish first.
                    std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
                    i as usize
                });
                b
            })
            .collect();
        let out = SweepRunner::with_threads(8).run_jobs(jobs);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn serial_runner_matches_parallel_runner() {
        let mk = || -> Vec<Job<'static, u64>> {
            (0..10u64)
                .map(|i| {
                    let b: Job<'static, u64> = Box::new(move || i * i + 7);
                    b
                })
                .collect()
        };
        assert_eq!(
            SweepRunner::serial().run_jobs(mk()),
            SweepRunner::with_threads(4).run_jobs(mk())
        );
    }

    #[test]
    fn service_pool_runs_jobs_and_drains() {
        use std::sync::atomic::AtomicU64;
        // Bound >= submission count: workers may drain slower than this
        // loop submits, and every job must be accepted for the sum check.
        let pool = ServicePool::start(SweepRunner::with_threads(4), 100, false);
        let sum = std::sync::Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let sum = std::sync::Arc::clone(&sum);
            pool.try_submit(Box::new(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            }))
            .expect("queue has room");
        }
        pool.drain();
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        let (_, peak, scheduled) = pool.depth();
        assert_eq!(scheduled, 100);
        assert!(peak >= 1);
    }

    #[test]
    fn service_pool_sheds_at_the_queue_bound_and_recovers() {
        // Paused workers: submissions queue but never start, so the bound
        // is hit deterministically.
        let pool = ServicePool::start(SweepRunner::with_threads(2), 2, true);
        pool.try_submit(Box::new(|| {})).unwrap();
        pool.try_submit(Box::new(|| {})).unwrap();
        assert_eq!(
            pool.try_submit(Box::new(|| {})),
            Err(SubmitError::QueueFull { queue_depth: 2 })
        );
        let (depth, peak, _) = pool.depth();
        assert_eq!(depth, 2);
        assert_eq!(peak, 2);
        // Drain resumes the paused workers, runs the queue down, and the
        // pool then refuses new work as shutting down.
        pool.drain();
        assert_eq!(pool.try_submit(Box::new(|| {})), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn try_run_jobs_reports_panics_as_data_on_both_paths() {
        let mk = || -> Vec<Job<'static, u64>> {
            (0..6u64)
                .map(|i| {
                    let b: Job<'static, u64> = Box::new(move || {
                        assert!(i != 2 && i != 4, "job {i} exploded");
                        i
                    });
                    b
                })
                .collect()
        };
        for runner in [SweepRunner::serial(), SweepRunner::with_threads(3)] {
            let report = runner.try_run_jobs(mk()).expect_err("two jobs panic");
            assert_eq!(report.panics.len(), 2);
            assert_eq!(report.panics[0].job, 2);
            assert_eq!(report.panics[1].job, 4);
            assert_eq!(report.completed, 4);
            assert!(report.panics[0].message.contains("job 2 exploded"));
            let shown = report.to_string();
            assert!(shown.contains("2 sweep job(s) panicked"), "got: {shown}");
            assert!(shown.contains("[job 4:"), "got: {shown}");
        }
    }

    #[test]
    fn run_jobs_panics_once_with_the_structured_report() {
        let jobs: Vec<Job<'static, ()>> =
            vec![Box::new(|| {}), Box::new(|| panic!("boom")), Box::new(|| {})];
        let err = catch_unwind(AssertUnwindSafe(|| {
            SweepRunner::with_threads(2).run_jobs(jobs);
        }))
        .expect_err("a panicking job fails the batch");
        let msg = panic_message(&*err);
        assert!(msg.contains("1 sweep job(s) panicked"), "got: {msg}");
        assert!(msg.contains("[job 1: boom]"), "got: {msg}");
    }

    #[test]
    fn catch_job_panic_converts_an_unwind_into_a_submit_error() {
        assert_eq!(catch_job_panic(|| 7), Ok(7));
        let err = catch_job_panic(|| -> u64 { panic!("engine bug {}", 13) })
            .expect_err("panic becomes data");
        assert_eq!(err, SubmitError::JobPanicked { message: "engine bug 13".into() });
    }

    #[test]
    fn service_pool_survives_a_panicking_job_and_reports_it_at_drain() {
        use std::sync::atomic::AtomicU64;
        let pool = ServicePool::start(SweepRunner::with_threads(2), 16, false);
        let done = std::sync::Arc::new(AtomicU64::new(0));
        pool.try_submit(Box::new(|| panic!("injected worker panic"))).unwrap();
        // The pool must keep serving after the contained panic: the same
        // workers run every subsequent job.
        for _ in 0..8 {
            let done = std::sync::Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                done.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        let report = pool.drain();
        assert_eq!(done.load(Ordering::Relaxed), 8);
        assert_eq!(report, DrainReport { worker_panics: 1, workers_lost: 0, jobs_abandoned: 0 });
        assert!(report.clean(), "a contained panic is not a lost worker");
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn crossbar_validation_is_deterministic() {
        let a = crossbar_validation();
        let b = crossbar_validation();
        assert_eq!(a.scalars(), b.scalars());
    }
}
