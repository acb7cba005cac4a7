//! The `dresar-serve` server: accept loop, request routing, and the three
//! serving mechanisms — content-addressed caching, in-flight coalescing,
//! and bounded admission.
//!
//! A `POST /run` request travels:
//!
//! 1. **Admit** — count the request, parse and validate the spec, take its
//!    digest and deadline, before touching any shared state; malformed
//!    requests cost one parse, never a queue slot.
//! 2. **Cache** — the spec's canonical digest indexes the bounded
//!    [`LruMap`] of bodies, then the durable [`ResultStore`]. A hit serves
//!    the stored body; determinism makes it byte-identical to a fresh run.
//! 3. **Coalesce** — misses consult the in-flight table. If an execution
//!    for the same digest is already queued or running, the request
//!    *attaches* to it (one engine execution, N responses) instead of
//!    re-running. The table entry is created before the job is submitted,
//!    under the same lock admission runs under, so there is no window in
//!    which two leaders can start for one digest.
//! 4. **Queue** — new digests are submitted to the bounded
//!    [`ServicePool`]. A full queue sheds the request with a structured
//!    429 `overloaded` error — published to the in-flight entry too, so
//!    any follower that attached in the same instant also gets the error
//!    instead of waiting forever.
//!
//! `GET /metrics` exposes the serving counters (`serve.cache_hits`,
//! `serve.coalesced`, `serve.shed`, `serve.queue_depth`, ...) as a
//! [`MetricsRegistry`] document plus a host section (uptime, peak RSS) in
//! the `hostprof` spirit: host numbers are informational and never
//! deterministic. `GET /metrics/stream` pushes the same registry as
//! chunked server-sent events at a configurable interval, each frame
//! carrying the counter deltas since the previous one (what
//! `dresar_client --watch` renders). `GET /healthz` answers liveness;
//! `POST /shutdown` triggers a graceful drain (stop admissions, finish
//! queued work, join workers).

use crate::cache::LruMap;
use crate::chaos::{ServeChaos, ServeFaultPlan};
use crate::error::ServeError;
use crate::http::{
    read_request, write_response, write_response_with, write_sse_end, write_sse_event,
    write_sse_head, Request,
};
use crate::run::{validate, ValidatedSpec};
use crate::store::ResultStore;
use dresar_bench::sweep::{catch_job_panic, lock_recover, ServicePool, SubmitError, SweepRunner};
use dresar_obs::{hostprof, log2_bucket, MetricValue, MetricsRegistry};
use dresar_types::{FastMap, FromJson, JsonValue, RunSpec, ToJson};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of log2 buckets in the service-time histogram (microseconds).
const SERVICE_HIST_BUCKETS: usize = 40;

/// Cap on distinct per-digest latency histograms kept in `/metrics`;
/// at the cap a new digest evicts the least-recently-updated histogram
/// (counted by `serve.hist_digests_evicted`), so a hot digest arriving
/// late still gets a histogram while the registry stays bounded against
/// digest churn.
const MAX_DIGEST_HISTS: usize = 64;

/// Default `GET /metrics/stream` frame interval when the query string does
/// not set `interval_ms`.
const STREAM_DEFAULT_INTERVAL_MS: u64 = 1000;

/// The `pid` server request spans use in merged Perfetto documents —
/// far from the simulator's pids 0..2, so the serving timeline renders as
/// its own process.
const PID_SERVER: u32 = 100;

/// Default cap on (and default value of) a request's compute deadline.
/// Generous: tier-1 runs tiny workloads in debug builds. Requests lower it
/// per-spec via `deadline_ms`; [`ServerConfig::max_deadline`] caps what
/// they may ask for.
const DEFAULT_MAX_DEADLINE: Duration = Duration::from_secs(600);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded admission queue depth; submissions beyond it are shed.
    pub queue_depth: usize,
    /// Engine worker threads; 0 sizes by [`SweepRunner::from_env`]
    /// (`DRESAR_SWEEP_THREADS`, else one per core).
    pub workers: usize,
    /// Result-cache capacity in entries.
    pub cache_entries: usize,
    /// Start with the engine workers paused (requests queue and coalesce
    /// but nothing executes until [`Server::resume_workers`]). Tests use
    /// this to make concurrency assertions deterministic.
    pub start_paused: bool,
    /// Directory for the durable result store ([`ResultStore`]); `None`
    /// serves memory-only, exactly as before the disk tier existed.
    pub store_dir: Option<std::path::PathBuf>,
    /// Upper bound on (and default for) per-request compute deadlines. A
    /// spec's `deadline_ms` is clamped to this; specs without one get it
    /// whole.
    pub max_deadline: Duration,
    /// Seeded serve-tier fault injection; `None` (the default) injects
    /// nothing. Test/CI-only — the binary arms it behind an explicit
    /// `--chaos` flag.
    pub chaos: Option<ServeFaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 64,
            workers: 0,
            cache_entries: 128,
            start_paused: false,
            store_dir: None,
            max_deadline: DEFAULT_MAX_DEADLINE,
            chaos: None,
        }
    }
}

/// A finished execution, as its flight hands it to every waiting request.
#[derive(Debug, Clone)]
struct Executed {
    /// The response body, shared by the LRU, the store write and every
    /// waiter.
    body: Arc<String>,
    /// The simulator's trace document (traced executions only).
    trace: Option<Arc<String>>,
    /// Microseconds the job waited in the admission queue.
    queue_us: u64,
    /// Microseconds the engine run and serialization took.
    exec_us: u64,
}

/// One pending execution that any number of requests await.
#[derive(Debug, Default)]
struct Flight {
    result: Mutex<Option<Result<Executed, ServeError>>>,
    ready: Condvar,
}

impl Flight {
    fn publish(&self, result: Result<Executed, ServeError>) {
        *lock_recover(&self.result) = Some(result);
        self.ready.notify_all();
    }

    /// Waits for the result until `deadline`. Each waiter enforces its
    /// *own* deadline here — a coalesced follower with a tighter deadline
    /// than the leader gives up on time even though the shared execution
    /// keeps running (and lands in the cache for its retry).
    fn wait(&self, deadline: Instant, deadline_ms: u64) -> Result<Executed, ServeError> {
        let mut slot = lock_recover(&self.result);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ServeError::DeadlineExceeded { deadline_ms, at: "waiting" });
            }
            slot = self.ready.wait_timeout(slot, left).unwrap_or_else(PoisonError::into_inner).0;
        }
    }
}

/// The effective compute deadline for a request: the spec's `deadline_ms`
/// clamped to the server cap, or the whole cap when the spec sets none.
fn effective_deadline_ms(spec: &RunSpec, max_deadline: Duration) -> u64 {
    let cap = us(max_deadline) / 1000;
    spec.deadline_ms.map_or(cap, |d| d.clamp(1, cap.max(1)))
}

/// Serving counters, all monotone and lock-free on the request path.
#[derive(Debug, Default)]
struct ServeMetrics {
    requests: AtomicU64,
    run_requests: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    executions: AtomicU64,
    errors: AtomicU64,
    inflight_peak: AtomicU64,
    /// Executions whose panic the per-job guard converted into a
    /// structured 500 (`internal_panic`); the worker survived each one.
    worker_panics: AtomicU64,
    /// Jobs whose deadline expired while still queued (dequeue-time check;
    /// no worker time was burned) plus waits that timed out.
    deadline_expired: AtomicU64,
    /// Store writes that failed (injected or real I/O errors); the result
    /// was still served from memory, only durability was lost.
    store_write_errors: AtomicU64,
    /// `GET /metrics/stream` connections accepted.
    metric_streams: AtomicU64,
    /// Service-time histogram over log2 microsecond buckets, grown to its
    /// highest nonempty bucket.
    service_us_hist: Mutex<Vec<u64>>,
}

/// The serving tier's one shutdown signal: a flag every path reads, and a
/// condvar that wakes the threads that wait on it between frames.
#[derive(Debug, Default)]
struct ShutdownSignal {
    flag: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl ShutdownSignal {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sets the flag and wakes every waiter; true only for the first call.
    fn raise(&self) -> bool {
        // Setting the flag under the lock means a waiter either sees it
        // before it sleeps or is asleep when the notify arrives.
        let _guard = lock_recover(&self.lock);
        let first = !self.flag.swap(true, Ordering::SeqCst);
        self.wake.notify_all();
        first
    }

    /// Waits up to `timeout`, returning early once the signal is raised.
    fn wait(&self, timeout: Duration) {
        let guard = lock_recover(&self.lock);
        let _ = self
            .wake
            .wait_timeout_while(guard, timeout, |_| !self.is_set())
            .unwrap_or_else(PoisonError::into_inner);
    }
}

struct Shared {
    /// The bound address (ephemeral ports resolved); the stop path
    /// connects to it to wake the acceptor.
    addr: SocketAddr,
    pool: ServicePool,
    cache: Mutex<LruMap<Arc<String>>>,
    /// Per-digest service-time histograms, as `service_us_hist`, bounded
    /// at [`MAX_DIGEST_HISTS`].
    digest_hists: Mutex<LruMap<Vec<u64>>>,
    /// Disk tier under the LRU; `None` when no `--store-dir` was given.
    store: Option<Mutex<ResultStore>>,
    inflight: Mutex<FastMap<u64, Arc<Flight>>>,
    metrics: ServeMetrics,
    shutting_down: ShutdownSignal,
    started: Instant,
    /// Server cap on per-request compute deadlines.
    max_deadline: Duration,
    /// Armed fault injection; `None` in every production configuration.
    chaos: Option<ServeChaos>,
    /// Most recent flight-recorder dump deposited by an anomalous run,
    /// served verbatim by `GET /debug/flight`.
    last_flight: Mutex<Option<Arc<String>>>,
}

/// A running `dresar-serve` instance. Construct with [`Server::start`];
/// stop with [`Server::shutdown`] (graceful drain) or by `POST /shutdown`
/// plus [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
    pub fn start(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // The acceptor blocks in `accept`; `stop` wakes it for shutdown
        // with one loopback connection, so no poll or signal is needed.
        let addr = listener.local_addr()?;
        let runner = if cfg.workers == 0 {
            SweepRunner::from_env()
        } else {
            SweepRunner::with_threads(cfg.workers)
        };
        // Warm-start: opening the store scans existing entries, so a
        // restarted server answers previously computed digests from disk.
        let store = match &cfg.store_dir {
            Some(dir) => Some(Mutex::new(
                ResultStore::open(dir).map_err(|e| std::io::Error::other(e.to_string()))?,
            )),
            None => None,
        };
        let shared = Arc::new(Shared {
            addr,
            pool: ServicePool::start(runner, cfg.queue_depth, cfg.start_paused),
            cache: Mutex::new(LruMap::new(cfg.cache_entries)),
            digest_hists: Mutex::new(LruMap::new(MAX_DIGEST_HISTS)),
            store,
            inflight: Mutex::new(FastMap::default()),
            metrics: ServeMetrics::default(),
            shutting_down: ShutdownSignal::default(),
            started: Instant::now(),
            max_deadline: cfg.max_deadline,
            chaos: cfg.chaos.filter(ServeFaultPlan::is_active).map(ServeChaos::arm),
            last_flight: Mutex::new(None),
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&listener, &shared, &conns))
        };
        Ok(Server { shared, acceptor: Some(acceptor), conns })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Releases engine workers started paused (see
    /// [`ServerConfig::start_paused`]).
    pub fn resume_workers(&self) {
        self.shared.pool.resume();
    }

    /// A point-in-time snapshot of the serving metrics (same registry the
    /// `/metrics` endpoint serves).
    pub fn metrics(&self) -> MetricsRegistry {
        snapshot(&self.shared)
    }

    /// Graceful shutdown: stop accepting, drain queued executions, join
    /// every thread. Idempotent with a prior `POST /shutdown`.
    pub fn shutdown(mut self) {
        stop(&self.shared);
        self.join_inner();
    }

    /// Blocks until the server shuts down (via [`Server::shutdown`] from
    /// another handle is impossible — `self` is owned — so in practice:
    /// until a client `POST /shutdown` arrives), then drains.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        // A poisoned acceptor or handler thread must not abort the drain:
        // count the casualty and keep shutting down — every remaining
        // thread still gets joined and every queued job still runs.
        if let Some(a) = self.acceptor.take() {
            if a.join().is_err() {
                self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        // New connections are no longer accepted; finish the ones in
        // flight (their queued executions run to completion in drain).
        let report = self.shared.pool.drain();
        if !report.clean() {
            eprintln!(
                "dresar-serve: unclean drain: {} worker(s) lost, {} job(s) abandoned",
                report.workers_lost, report.jobs_abandoned
            );
        }
        let handles: Vec<_> = std::mem::take(&mut *lock_recover(&self.conns));
        for h in handles {
            if h.join().is_err() {
                self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Starts the graceful drain; the one stop path of [`Server::shutdown`]
/// and `POST /shutdown`. Raises the shutdown signal, then wakes the
/// acceptor out of its blocking `accept` with one loopback connection,
/// which it drops unrouted.
fn stop(shared: &Shared) {
    if shared.shutting_down.raise() {
        // Refused or reset when the acceptor saw the flag before it
        // blocked and has already closed the listener: nothing to wake.
        let _ = TcpStream::connect(wake_addr(shared.addr));
    }
}

/// Where the stop path connects: the bound address, with an unspecified
/// IP (`0.0.0.0`, `[::]`) replaced by the loopback address of its family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.shutting_down.is_set() {
        match listener.accept() {
            // The stop path's wake-up (or a client racing it): dropped
            // unrouted, so it counts in no serve counter.
            Ok(_) if shared.shutting_down.is_set() => break,
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || handle_conn(stream, &shared));
                let mut reg = lock_recover(conns);
                // Opportunistically reap finished handlers so the registry
                // does not grow with total connections served.
                reg.retain(|h| !h.is_finished());
                reg.push(handle);
            }
            // A real accept error (say, out of descriptors): back off
            // rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One routed response: status, content type, extra headers, body.
struct Reply {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: Arc<String>,
}

impl Reply {
    fn json(status: u16, body: impl Into<Arc<String>>) -> Reply {
        Reply { status, content_type: "application/json", headers: Vec::new(), body: body.into() }
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Arc<Shared>) {
    shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let _ = write_error(&mut stream, &e);
            return;
        }
    };
    // The streaming route writes the socket itself (chunked SSE frames);
    // everything else goes through the Content-Length reply path.
    if request.method == "GET" && request.route().0 == "/metrics/stream" {
        serve_metrics_stream(&mut stream, &request, shared);
        return;
    }
    match route(&request, shared) {
        Ok(reply) => {
            let _ = write_response_with(
                &mut stream,
                reply.status,
                reply.content_type,
                &reply.headers,
                &reply.body,
            );
        }
        Err(e) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let _ = write_error(&mut stream, &e);
        }
    }
}

/// Writes a structured error reply, with a `Retry-After` header on every
/// retryable failure (429 `overloaded`, 503 `shutting_down` /
/// `deadline_exceeded`) so well-behaved clients back off instead of
/// hammering.
fn write_error(stream: &mut TcpStream, e: &ServeError) -> std::io::Result<()> {
    match e.retry_after() {
        Some(secs) => write_response_with(
            stream,
            e.status(),
            "application/json",
            &[("Retry-After", secs.to_string())],
            &e.body(),
        ),
        None => write_response(stream, e.status(), &e.body()),
    }
}

fn route(request: &Request, shared: &Arc<Shared>) -> Result<Reply, ServeError> {
    let (path, query) = request.route();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Ok(Reply::json(200, healthz_body(shared))),
        ("GET", "/metrics") => {
            // Content negotiation: Prometheus text exposition on
            // `?format=prom` or an Accept preferring text/plain; the
            // JSON document otherwise.
            let wants_prom = query.split('&').any(|kv| kv == "format=prom")
                || request.header("accept").is_some_and(|a| a.contains("text/plain"));
            if wants_prom {
                Ok(Reply {
                    content_type: "text/plain; version=0.0.4",
                    ..Reply::json(200, snapshot(shared).to_prometheus())
                })
            } else {
                Ok(Reply::json(200, metrics_body(shared)))
            }
        }
        ("GET", "/debug/flight") => {
            let dump = lock_recover(&shared.last_flight).clone();
            dump.map(|body| Reply::json(200, body)).ok_or(ServeError::FlightUnavailable)
        }
        ("POST", "/run") => match request.header("x-dresar-trace") {
            Some(trace_id) => serve_run_traced(&request.body, trace_id, shared),
            None => serve_run(&request.body, shared),
        },
        ("POST", "/shutdown") => {
            stop(shared);
            Ok(Reply::json(200, "{\"draining\":true}\n".to_string()))
        }
        ("GET" | "POST", _) => {
            Err(ServeError::NotFound(format!("no route for '{}'", request.path)))
        }
        (m, _) => Err(ServeError::MethodNotAllowed(format!("method '{m}' not supported"))),
    }
}

/// A `/run` request that passed admission.
struct Admitted {
    validated: ValidatedSpec,
    digest: u64,
    deadline: Instant,
    deadline_ms: u64,
}

/// The admission step both `/run` paths start with: refuse while draining,
/// count the request, parse and validate its spec, and take its digest and
/// deadline.
fn admit(body: &str, shared: &Shared) -> Result<Admitted, ServeError> {
    if shared.shutting_down.is_set() {
        return Err(ServeError::ShuttingDown);
    }
    shared.metrics.run_requests.fetch_add(1, Ordering::Relaxed);
    let spec = parse_spec(body)?;
    let validated = validate(&spec)?;
    let deadline_ms = effective_deadline_ms(&spec, shared.max_deadline);
    Ok(Admitted {
        validated,
        digest: spec.digest(),
        deadline: Instant::now() + Duration::from_millis(deadline_ms),
        deadline_ms,
    })
}

/// The `/run` pipeline: admit, then the LRU, the disk store and a
/// coalesced execution, each tier falling through to the next on a miss.
/// The reply's `X-Dresar-Cache` header names the tier that answered.
fn serve_run(body: &str, shared: &Arc<Shared>) -> Result<Reply, ServeError> {
    let t0 = Instant::now();
    let Admitted { validated, digest, deadline, deadline_ms } = admit(body, shared)?;
    let cached = lock_recover(&shared.cache).get(digest).cloned();
    let (body, headers) = if let Some(body) = cached {
        shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        (body, vec![("X-Dresar-Cache", "hit".to_string())])
    } else if let Some(body) = store_load(shared, digest) {
        // A verified disk hit repopulates the LRU, so the next request is
        // a memory hit. A corrupt entry was quarantined inside `load`:
        // fall through and re-execute.
        lock_recover(&shared.cache).insert(digest, Arc::clone(&body));
        (body, vec![("X-Dresar-Cache", "disk".to_string())])
    } else {
        let flight = attach_or_lead(digest, validated, deadline, deadline_ms, shared)?;
        // Coalesced followers report the shared execution's timings.
        let done = flight.wait(deadline, deadline_ms)?;
        let headers = vec![
            ("X-Dresar-Cache", "miss".to_string()),
            ("X-Dresar-Queue-Us", done.queue_us.to_string()),
            ("X-Dresar-Exec-Us", done.exec_us.to_string()),
        ];
        (done.body, headers)
    };
    record_service_time(shared, digest, t0.elapsed());
    Ok(Reply { headers, ..Reply::json(200, body) })
}

/// Loads `digest` from the disk tier, if one is configured. Chaos may
/// corrupt the entry's bytes first — which must surface as a quarantine
/// (counted in `serve.store_corrupt`), never as served garbage.
fn store_load(shared: &Shared, digest: u64) -> Option<Arc<String>> {
    let store = shared.store.as_ref()?;
    let mut store = lock_recover(store);
    if let Some(chaos) = &shared.chaos {
        if store.contains(digest) && chaos.corrupt_store_read() {
            corrupt_entry_on_disk(&store.path_of(digest));
        }
    }
    match store.load(digest) {
        Ok(hit) => hit.map(Arc::new),
        // Io or Corrupt: either way the store already accounted for it and
        // the entry cannot be served; re-executing is the honest fallback.
        Err(_) => None,
    }
}

/// Chaos helper: flips one bit of the last body byte on disk, so the
/// store's checksum verification must catch it.
fn corrupt_entry_on_disk(path: &std::path::Path) {
    if let Ok(mut raw) = std::fs::read(path) {
        // The final 8 bytes are the checksum frame; byte len-9 is the last
        // body byte, so the flip damages the body, not the framing.
        if let Some(i) = raw.len().checked_sub(9) {
            raw[i] ^= 0x01;
            let _ = std::fs::write(path, raw);
        }
    }
}

/// Persists a freshly computed body to the disk tier (write-through under
/// the LRU). Failures cost durability, never the response: the error is
/// counted and the in-memory result is served regardless.
fn store_save(shared: &Shared, digest: u64, body: &str) {
    let Some(store) = shared.store.as_ref() else { return };
    if shared.chaos.as_ref().is_some_and(ServeChaos::fail_store_write) {
        shared.metrics.store_write_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if lock_recover(store).save(digest, body).is_err() {
        shared.metrics.store_write_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Joins the in-flight execution for `digest`, creating and admitting it
/// if this request is the first (the "leader"). Holding the in-flight lock
/// across admission closes both races: two leaders for one digest, and a
/// follower attaching to an entry that was shed between insert and submit.
fn attach_or_lead(
    digest: u64,
    validated: ValidatedSpec,
    deadline: Instant,
    deadline_ms: u64,
    shared: &Arc<Shared>,
) -> Result<Arc<Flight>, ServeError> {
    let mut inflight = lock_recover(&shared.inflight);
    if let Some(existing) = inflight.get(&digest) {
        shared.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(existing));
    }
    let flight = Arc::new(Flight::default());
    inflight.insert(digest, Arc::clone(&flight));
    let peak = inflight.len() as u64;
    shared.metrics.inflight_peak.fetch_max(peak, Ordering::Relaxed);

    let finish = {
        let flight = Arc::clone(&flight);
        move |shared: &Shared, result: Result<Executed, ServeError>| {
            if let Ok(done) = &result {
                lock_recover(&shared.cache).insert(digest, Arc::clone(&done.body));
                store_save(shared, digest, &done.body);
            }
            // Unregister before publishing: a request arriving after this
            // point must hit the cache (or start a fresh run), never attach
            // to a completed flight.
            lock_recover(&shared.inflight).remove(&digest);
            flight.publish(result);
        }
    };
    let path = ExecPath::Cached { deadline, deadline_ms };
    if let Err(err) = submit_execution(shared, validated, digest, path, finish) {
        inflight.remove(&digest);
        // Any follower that attached before this lock was taken gets the
        // same structured error instead of waiting forever.
        flight.publish(Err(err.clone()));
        return Err(err);
    }
    Ok(flight)
}

/// Which `/run` path an execution serves.
enum ExecPath {
    /// The shared, cached path. At dequeue a job whose leader's deadline
    /// has passed is answered 503 without burning a worker on a result
    /// nobody is waiting for, and chaos may inject a worker panic.
    Cached { deadline: Instant, deadline_ms: u64 },
    /// The instrumented `X-Dresar-Trace` path.
    Traced,
}

/// Queues one execution of `validated` on the engine pool and hands its
/// outcome to `finish` on the worker. The job times its queue wait and its
/// run, counts the execution, contains a panic as a structured 500 (counted
/// in `serve.worker_panics`; the worker and the pool survive), and deposits
/// an anomalous run's flight dump. A refused submission is counted as shed
/// and returned as its structured error.
fn submit_execution(
    shared: &Arc<Shared>,
    validated: ValidatedSpec,
    digest: u64,
    path: ExecPath,
    finish: impl FnOnce(&Shared, Result<Executed, ServeError>) + Send + 'static,
) -> Result<(), ServeError> {
    let digest_hex = format!("{digest:016x}");
    let job = {
        let shared = Arc::clone(shared);
        let digest_hex = digest_hex.clone();
        let submitted = Instant::now();
        Box::new(move || {
            if let ExecPath::Cached { deadline, deadline_ms } = path {
                if Instant::now() >= deadline {
                    shared.metrics.deadline_expired.fetch_add(1, Ordering::Relaxed);
                    let at = "queued";
                    return finish(&shared, Err(ServeError::DeadlineExceeded { deadline_ms, at }));
                }
            }
            let queue_us = us(submitted.elapsed());
            shared.metrics.executions.fetch_add(1, Ordering::Relaxed);
            let t_exec = Instant::now();
            let result = match catch_job_panic(|| {
                if let (ExecPath::Cached { .. }, Some(chaos)) = (&path, &shared.chaos) {
                    if chaos.before_exec() {
                        panic!("chaos: injected worker panic");
                    }
                }
                validated.execute_full(matches!(path, ExecPath::Traced))
            }) {
                Ok(executed) => executed,
                Err(SubmitError::JobPanicked { message }) => {
                    shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::JobPanicked { digest: digest_hex, message })
                }
                Err(other) => Err(ServeError::Internal(format!("job guard: {other:?}"))),
            };
            let exec_us = us(t_exec.elapsed());
            let result = result.map(|out| {
                if let Some(dump) = out.flight {
                    *lock_recover(&shared.last_flight) = Some(Arc::new(dump));
                }
                let (body, trace) = (Arc::new(out.body), out.trace.map(Arc::new));
                Executed { body, trace, queue_us, exec_us }
            });
            finish(&shared, result);
        })
    };
    shared.pool.try_submit(job).map_err(|submit_err| {
        shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
        match submit_err {
            SubmitError::QueueFull { queue_depth } => ServeError::Overloaded { queue_depth },
            SubmitError::ShuttingDown => ServeError::ShuttingDown,
            SubmitError::JobPanicked { message } => {
                ServeError::JobPanicked { digest: digest_hex, message }
            }
        }
    })
}

/// The traced `/run` pipeline (`X-Dresar-Trace` header): the same
/// admission step and bounded queue, but the execution is instrumented and
/// never shared — the cache verdict is recorded yet bypassed and the run
/// does not register in the in-flight table, because the merged-trace
/// response is request-specific. The body is one Chrome-trace/Perfetto
/// document: server request spans (pid [`PID_SERVER`]) plus the
/// simulator's causal spans, linked by the trace id and spec digest
/// carried in every server span's args.
fn serve_run_traced(body: &str, trace_id: &str, shared: &Arc<Shared>) -> Result<Reply, ServeError> {
    let t0 = Instant::now();
    let Admitted { validated, digest, deadline, deadline_ms } = admit(body, shared)?;
    let digest_hex = format!("{digest:016x}");
    let admit_end = us(t0.elapsed());

    let cache_hit = lock_recover(&shared.cache).get(digest).is_some();
    let cache_end = us(t0.elapsed());

    // Real queue wait: the instrumented run goes through the same bounded
    // admission as every other execution.
    let flight = Arc::new(Flight::default());
    let submit_off = us(t0.elapsed());
    let finish = {
        let flight = Arc::clone(&flight);
        move |_: &Shared, result| flight.publish(result)
    };
    submit_execution(shared, validated, digest, ExecPath::Traced, finish)?;
    let Executed { trace, queue_us, exec_us, .. } = flight.wait(deadline, deadline_ms)?;

    let ser_off = us(t0.elapsed());
    let sim_events = trace.as_deref().map_or("", |doc| trace_inner(doc));
    let serialize_us = us(t0.elapsed()).saturating_sub(ser_off);

    let tid_json = JsonValue::Str(trace_id.to_string()).dump();
    let span_args = format!("\"trace_id\":{tid_json},\"digest\":\"{digest_hex}\"");
    let mut events: Vec<String> = vec![
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID_SERVER},\
             \"args\":{{\"name\":\"dresar-serve\"}}}}"
        ),
        format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_SERVER},\"tid\":1,\
             \"args\":{{\"name\":\"request\"}}}}"
        ),
    ];
    let phases: [(&str, u64, u64); 5] = [
        ("admission", 0, admit_end),
        ("cache_lookup", admit_end, cache_end.saturating_sub(admit_end)),
        ("queue_wait", submit_off, queue_us),
        ("execute", submit_off + queue_us, exec_us),
        ("serialize", ser_off, serialize_us),
    ];
    for (name, ts, dur) in phases {
        events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":{PID_SERVER},\
             \"tid\":1,\"ts\":{ts},\"dur\":{dur},\"args\":{{{span_args}}}}}"
        ));
    }
    let phase_json = JsonValue::obj()
        .field("admission_us", admit_end)
        .field("cache_lookup_us", cache_end.saturating_sub(admit_end))
        .field("queue_wait_us", queue_us)
        .field("execute_us", exec_us)
        .field("serialize_us", serialize_us)
        .build();
    let meta = JsonValue::obj()
        .field("tool", "dresar-serve")
        .field("trace_id", trace_id)
        .field("digest", digest_hex.as_str())
        .field("cache_hit_bypassed", cache_hit)
        .field("sim_trace", trace.is_some())
        .field("phases_us", phase_json)
        .build();

    let mut doc = String::from("{\"traceEvents\":[\n");
    doc.push_str(&events.join(",\n"));
    if !sim_events.is_empty() {
        doc.push_str(",\n");
        doc.push_str(sim_events);
    }
    doc.push_str("\n],\n\"dresar\":");
    doc.push_str(&meta.dump());
    doc.push_str("}\n");

    record_service_time(shared, digest, t0.elapsed());
    let headers = vec![
        ("X-Dresar-Trace", trace_id.to_string()),
        ("X-Dresar-Queue-Us", queue_us.to_string()),
        ("X-Dresar-Exec-Us", exec_us.to_string()),
    ];
    Ok(Reply { headers, ..Reply::json(200, doc) })
}

/// `GET /metrics/stream`: pushes windowed metric snapshots as chunked
/// server-sent events until the client disconnects, the server drains, or
/// the requested frame count is reached.
///
/// Query parameters: `frames=N` bounds the stream to N events (0 or absent
/// streams until shutdown/disconnect); `interval_ms=M` sets the frame
/// interval (clamped to 10..60000, default
/// [`STREAM_DEFAULT_INTERVAL_MS`]).
///
/// Each event's `data:` line is one compact JSON object: `seq`, host
/// `uptime_seconds`, the full cumulative `metrics` registry, and `window`
/// — the counter deltas since the previous frame (first frame: since the
/// counters were zero), which is what makes the stream a rate view rather
/// than a monotone ramp.
fn serve_metrics_stream(stream: &mut TcpStream, request: &Request, shared: &Arc<Shared>) {
    let (_, query) = request.route();
    let mut frames = 0u64;
    let mut interval_ms = STREAM_DEFAULT_INTERVAL_MS;
    for kv in query.split('&') {
        if let Some((k, v)) = kv.split_once('=') {
            match k {
                "frames" => frames = v.parse().unwrap_or(frames),
                "interval_ms" => interval_ms = v.parse().unwrap_or(interval_ms),
                _ => {}
            }
        }
    }
    let interval = Duration::from_millis(interval_ms.clamp(10, 60_000));
    if write_sse_head(stream).is_err() {
        return;
    }
    shared.metrics.metric_streams.fetch_add(1, Ordering::Relaxed);
    let mut prev: Option<MetricsRegistry> = None;
    let mut seq = 0u64;
    loop {
        let snap = snapshot(shared);
        let mut window = JsonValue::obj();
        for (name, v) in snap.iter() {
            if let MetricValue::Counter(c) = v {
                let before = match prev.as_ref().and_then(|p| p.get(name)) {
                    Some(MetricValue::Counter(b)) => *b,
                    _ => 0,
                };
                window = window.field(name, c.saturating_sub(before));
            }
        }
        let payload = JsonValue::obj()
            .field("seq", seq)
            .field("uptime_seconds", shared.started.elapsed().as_secs_f64())
            .field("interval_ms", interval.as_millis() as u64)
            .field("metrics", snap.to_json())
            .field("window", window.build())
            .build()
            .dump();
        if write_sse_event(stream, &payload).is_err() {
            return; // client hung up mid-stream; nothing to terminate
        }
        prev = Some(snap);
        seq += 1;
        if (frames != 0 && seq >= frames) || shared.shutting_down.is_set() {
            break;
        }
        // The shutdown signal cuts the wait short, so a drain is observed
        // promptly even at slow frame intervals.
        shared.shutting_down.wait(interval);
    }
    let _ = write_sse_end(stream);
}

/// The event lines of a trace document (strips the enclosing JSON array
/// brackets so the events splice into a larger `traceEvents` array).
fn trace_inner(doc: &str) -> &str {
    let inner = doc.strip_prefix("[\n").unwrap_or(doc);
    let inner = inner.strip_suffix("\n]\n").unwrap_or(inner);
    inner.trim_matches('\n')
}

fn parse_spec(body: &str) -> Result<RunSpec, ServeError> {
    let json = JsonValue::parse(body)
        .map_err(|e| ServeError::BadJson(format!("request body is not JSON: {e}")))?;
    RunSpec::from_json(&json).map_err(|e| {
        if e.msg.starts_with("unknown field") {
            ServeError::UnknownField(e.msg)
        } else {
            ServeError::BadField(e.msg)
        }
    })
}

fn us(elapsed: Duration) -> u64 {
    elapsed.as_micros().min(u128::from(u64::MAX)) as u64
}

fn record_service_time(shared: &Shared, digest: u64, elapsed: Duration) {
    let bucket = log2_bucket(us(elapsed), SERVICE_HIST_BUCKETS);
    count(&mut lock_recover(&shared.metrics.service_us_hist), bucket);
    count(lock_recover(&shared.digest_hists).get_or_insert_with(digest, Vec::new), bucket);
}

/// Counts one observation in `bucket`, growing `hist` only as far as its
/// highest nonempty bucket: the trimmed form `/metrics` emits.
fn count(hist: &mut Vec<u64>, bucket: usize) {
    if hist.len() <= bucket {
        hist.resize(bucket + 1, 0);
    }
    hist[bucket] += 1;
}

/// Assembles the serving registry: every admission/coalescing/cache
/// counter plus the pool's queue gauges. Purely monotone counters and
/// gauges — host wall-clock lives in the separate `host` section.
fn snapshot(shared: &Shared) -> MetricsRegistry {
    let m = &shared.metrics;
    let mut reg = MetricsRegistry::new();
    reg.counter("serve.requests", m.requests.load(Ordering::Relaxed));
    reg.counter("serve.run_requests", m.run_requests.load(Ordering::Relaxed));
    reg.counter("serve.cache_hits", m.cache_hits.load(Ordering::Relaxed));
    reg.counter("serve.coalesced", m.coalesced.load(Ordering::Relaxed));
    reg.counter("serve.shed", m.shed.load(Ordering::Relaxed));
    reg.counter("serve.executions", m.executions.load(Ordering::Relaxed));
    reg.counter("serve.errors", m.errors.load(Ordering::Relaxed));
    {
        let cache = lock_recover(&shared.cache);
        let (hits, misses, evictions) = cache.stats();
        reg.counter("serve.cache_lookup_hits", hits);
        reg.counter("serve.cache_lookup_misses", misses);
        reg.counter("serve.cache_evictions", evictions);
        reg.gauge("serve.cache_entries", cache.len() as u64, cache.len() as u64);
    }
    // Panics contained by the per-job guard plus any that escaped to the
    // pool's worker-level backstop: either way the worker survived and the
    // request got a structured 500.
    reg.counter(
        "serve.worker_panics",
        m.worker_panics.load(Ordering::Relaxed) + shared.pool.panics(),
    );
    reg.counter("serve.deadline_expired", m.deadline_expired.load(Ordering::Relaxed));
    // Store counters are emitted even with no store configured (as zeros)
    // so dashboards and the prom exposition have a stable schema.
    let (store_hits, store_corrupt, store_entries) = match &shared.store {
        Some(store) => {
            let store = lock_recover(store);
            let (hits, corrupt) = store.stats();
            (hits, corrupt, store.entries())
        }
        None => (0, 0, 0),
    };
    reg.counter("serve.store_hits", store_hits);
    reg.counter("serve.store_corrupt", store_corrupt);
    reg.counter("serve.store_write_errors", m.store_write_errors.load(Ordering::Relaxed));
    reg.gauge("serve.store_entries", store_entries, store_entries);
    let (depth, peak, scheduled) = shared.pool.depth();
    reg.gauge("serve.queue_depth", depth, peak);
    reg.counter("serve.scheduled", scheduled);
    let inflight_now = lock_recover(&shared.inflight).len() as u64;
    reg.gauge("serve.inflight", inflight_now, m.inflight_peak.load(Ordering::Relaxed));
    reg.hist("serve.service_us_log2", lock_recover(&m.service_us_hist).clone());
    reg.counter("serve.metric_streams", m.metric_streams.load(Ordering::Relaxed));
    let per_digest = lock_recover(&shared.digest_hists);
    reg.counter("serve.hist_digests_evicted", per_digest.stats().2);
    for (digest, hist) in per_digest.iter() {
        reg.hist(&format!("serve.digest.{digest:016x}.service_us_log2"), hist.clone());
    }
    reg
}

fn metrics_body(shared: &Shared) -> String {
    let host = JsonValue::obj()
        .field("uptime_seconds", shared.started.elapsed().as_secs_f64())
        .field("peak_rss_bytes", hostprof::peak_rss_bytes())
        .build();
    let mut text = dresar_bench::json_doc("dresar-serve")
        .field("metrics", snapshot(shared).to_json())
        .field("host", host)
        .build()
        .dump();
    text.push('\n');
    text
}

fn healthz_body(shared: &Shared) -> String {
    let mut text = JsonValue::obj()
        .field("ok", true)
        .field("tool", "dresar-serve")
        .field("shutting_down", shared.shutting_down.is_set())
        .build()
        .dump();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_shared() -> Shared {
        Shared {
            addr: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
            pool: ServicePool::start(SweepRunner::with_threads(1), 1, false),
            cache: Mutex::new(LruMap::new(4)),
            digest_hists: Mutex::new(LruMap::new(MAX_DIGEST_HISTS)),
            store: None,
            inflight: Mutex::new(FastMap::default()),
            metrics: ServeMetrics::default(),
            shutting_down: ShutdownSignal::default(),
            started: Instant::now(),
            max_deadline: DEFAULT_MAX_DEADLINE,
            chaos: None,
            last_flight: Mutex::new(None),
        }
    }

    #[test]
    fn eviction_count_reaches_the_metrics_registry() {
        // The snapshot wiring: evictions surface as the
        // `serve.hist_digests_evicted` counter.
        let shared = bare_shared();
        for digest in 0..(MAX_DIGEST_HISTS as u64 + 5) {
            record_service_time(&shared, digest, Duration::from_micros(digest + 1));
        }
        let reg = snapshot(&shared);
        assert_eq!(reg.get("serve.hist_digests_evicted"), Some(&MetricValue::Counter(5)));
        let digests = reg.iter().filter(|(n, _)| n.starts_with("serve.digest.")).count();
        assert_eq!(digests, MAX_DIGEST_HISTS);
        shared.pool.drain();
    }

    #[test]
    fn robustness_counters_render_in_both_expositions() {
        let shared = bare_shared();
        shared.metrics.worker_panics.fetch_add(2, Ordering::Relaxed);
        shared.metrics.deadline_expired.fetch_add(3, Ordering::Relaxed);
        let reg = snapshot(&shared);
        // JSON exposition: present as plain counters.
        assert_eq!(reg.get("serve.worker_panics"), Some(&MetricValue::Counter(2)));
        assert_eq!(reg.get("serve.deadline_expired"), Some(&MetricValue::Counter(3)));
        assert_eq!(reg.get("serve.store_hits"), Some(&MetricValue::Counter(0)));
        assert_eq!(reg.get("serve.store_corrupt"), Some(&MetricValue::Counter(0)));
        // Prometheus exposition: dotted names flatten to underscores with
        // TYPE lines.
        let prom = reg.to_prometheus();
        for line in [
            "# TYPE serve_worker_panics counter\nserve_worker_panics 2\n",
            "# TYPE serve_deadline_expired counter\nserve_deadline_expired 3\n",
            "# TYPE serve_store_hits counter\nserve_store_hits 0\n",
            "# TYPE serve_store_corrupt counter\nserve_store_corrupt 0\n",
            "# TYPE serve_store_write_errors counter\nserve_store_write_errors 0\n",
        ] {
            assert!(prom.contains(line), "missing {line:?} in:\n{prom}");
        }
        shared.pool.drain();
    }

    #[test]
    fn store_tier_counters_flow_from_a_real_store() {
        let dir = std::env::temp_dir().join(format!("dresar-serve-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut shared = bare_shared();
        let mut store = ResultStore::open(&dir).unwrap();
        store.save(11, "body").unwrap();
        store.load(11).unwrap();
        shared.store = Some(Mutex::new(store));
        let reg = snapshot(&shared);
        assert_eq!(reg.get("serve.store_hits"), Some(&MetricValue::Counter(1)));
        assert_eq!(
            reg.get("serve.store_entries"),
            Some(&MetricValue::Gauge { current: 1, peak: 1 })
        );
        shared.pool.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wake_addr_maps_an_unspecified_ip_to_the_loopback_of_its_family() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:8757"), "127.0.0.1:8757");
        assert_eq!(wake("[::]:8757"), "[::1]:8757");
        assert_eq!(wake("127.0.0.1:8757"), "127.0.0.1:8757", "a specific IP is kept");
        assert_eq!(wake("192.0.2.7:80"), "192.0.2.7:80");
    }

    #[test]
    fn the_wake_up_connection_is_never_routed() {
        // Both stop paths wake the acceptor with a loopback connection that
        // sends nothing; routed, it would count as a request and a
        // malformed-request error.
        for via_route in [false, true] {
            let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
            let shared = Arc::clone(&server.shared);
            let addr = server.local_addr().to_string();
            let health = crate::client::http_request(&addr, "GET", "/healthz", "").unwrap();
            assert_eq!(health.status, 200);
            if via_route {
                let reply = crate::client::http_request(&addr, "POST", "/shutdown", "").unwrap();
                assert_eq!(reply.status, 200);
                server.join();
            } else {
                server.shutdown();
            }
            let reg = snapshot(&shared);
            let routed = 1 + u64::from(via_route);
            assert_eq!(reg.get("serve.requests"), Some(&MetricValue::Counter(routed)));
            assert_eq!(reg.get("serve.errors"), Some(&MetricValue::Counter(0)));
        }
    }

    #[test]
    fn effective_deadline_clamps_to_the_server_cap() {
        let cap = Duration::from_secs(10);
        let none = RunSpec::default();
        assert_eq!(effective_deadline_ms(&none, cap), 10_000, "no spec deadline: whole cap");
        let tight = RunSpec { deadline_ms: Some(250), ..RunSpec::default() };
        assert_eq!(effective_deadline_ms(&tight, cap), 250);
        let greedy = RunSpec { deadline_ms: Some(3_600_000), ..RunSpec::default() };
        assert_eq!(effective_deadline_ms(&greedy, cap), 10_000, "greedy ask capped");
        let zero = RunSpec { deadline_ms: Some(0), ..RunSpec::default() };
        assert_eq!(effective_deadline_ms(&zero, cap), 1, "zero clamps up, not to forever");
    }
}
