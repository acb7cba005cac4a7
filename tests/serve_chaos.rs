//! Chaos and durability tests for `dresar-serve`: seeded fault injection
//! ([`ServeFaultPlan`]) drives worker panics, store corruption and queue
//! deadlines through the real HTTP surface, proving the endurance story
//! end to end:
//!
//! - an injected engine panic is a structured 500 (`internal_panic`) and
//!   the *next* request for the same digest succeeds from the surviving
//!   pool, byte-identical across repeats;
//! - a server restarted over a populated `--store-dir` serves prior
//!   digests from disk (`X-Dresar-Cache: disk`) without re-executing;
//! - a corrupted store entry is quarantined (never served) and the result
//!   transparently recomputed;
//! - a request whose deadline expires while queued is answered 503
//!   without burning a worker on it;
//! - the client retry policy absorbs shed replies;
//! - chaos outcomes are deterministic per seed (the CI leg pins two).
//!
//! The determinism discipline from the engine carries up: every scenario
//! asserts exact counters and byte-identical bodies, not "eventually ok".

use dresar_obs::{MetricValue, MetricsRegistry};
use dresar_server::client::{http_request_with, post_run, post_run_retry, RetryPolicy};
use dresar_server::serve::{Server, ServerConfig};
use dresar_server::ServeFaultPlan;
use dresar_types::JsonValue;
use std::time::{Duration, Instant};

const FFT_SPEC: &str = r#"{"workload":"FFT","scale":"tiny","nodes":16,"sd_entries":256,"seed":7}"#;

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    match reg.get(name) {
        Some(MetricValue::Counter(c)) => *c,
        other => panic!("metric {name} missing or not a counter: {other:?}"),
    }
}

/// Polls the server's metrics until `cond` holds (or panics after 30s).
fn wait_until(server: &Server, what: &str, cond: impl Fn(&MetricsRegistry) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if cond(&server.metrics()) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn error_code(body: &str) -> String {
    let doc = JsonValue::parse(body).expect("error body is JSON");
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(JsonValue::as_str)
        .expect("error body has error.code")
        .to_string()
}

/// A unique per-test scratch directory for the durable store.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dresar-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos(spec: &str) -> Option<ServeFaultPlan> {
    Some(ServeFaultPlan::parse(spec).expect("chaos spec parses"))
}

#[test]
fn injected_worker_panic_is_a_structured_500_and_the_pool_keeps_serving() {
    // One worker, so surviving the panic is only possible if that single
    // worker's loop contains it — there is no spare to hide behind.
    let cfg = ServerConfig { workers: 1, chaos: chaos("panic_nth=1"), ..Default::default() };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();

    let panicked = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(panicked.status, 500, "injected panic must be a 500: {}", panicked.body);
    assert_eq!(error_code(&panicked.body), "internal_panic");
    let doc = JsonValue::parse(&panicked.body).unwrap();
    let detail = doc
        .get("error")
        .and_then(|e| e.get("detail"))
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string();
    assert!(detail.contains("chaos: injected worker panic"), "detail lacks payload: {detail}");
    assert!(detail.contains("digest"), "detail must name the digest: {detail}");
    assert_eq!(counter(&server.metrics(), "serve.worker_panics"), 1);

    // The NEXT request for the same digest must succeed: the panic was not
    // cached, the worker survived, and the engine re-runs cleanly.
    let first = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(first.status, 200, "post-panic request failed: {}", first.body);
    let second = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(first.body, second.body, "post-panic bodies must be byte-identical");

    let reg = server.metrics();
    assert_eq!(counter(&reg, "serve.worker_panics"), 1, "exactly the injected panic");
    assert_eq!(counter(&reg, "serve.executions"), 2, "panicked attempt + clean re-run");
    server.shutdown();
}

#[test]
fn restarted_server_serves_prior_digests_from_disk_byte_identically() {
    let dir = scratch_dir("restart");

    // First life: execute once, which write-throughs to the store.
    let cfg = ServerConfig { store_dir: Some(dir.clone()), ..Default::default() };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let cold = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-dresar-cache"), Some("miss"));
    server.shutdown();

    // Second life over the same directory: the LRU is empty, but the boot
    // scan found the entry — the digest is answered from disk, verified,
    // byte-identical, with zero executions.
    let cfg = ServerConfig { store_dir: Some(dir.clone()), ..Default::default() };
    let reborn = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = reborn.local_addr().to_string();
    let warm = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(warm.header("x-dresar-cache"), Some("disk"), "restart must hit the disk tier");
    assert_eq!(warm.body, cold.body, "disk-served body must be byte-identical");

    let reg = reborn.metrics();
    assert_eq!(counter(&reg, "serve.executions"), 0, "a disk hit must not re-execute");
    assert_eq!(counter(&reg, "serve.store_hits"), 1);

    // The disk hit repopulated the LRU: the next request is a memory hit.
    let hot = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(hot.header("x-dresar-cache"), Some("hit"));
    assert_eq!(hot.body, cold.body);
    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `/run` counters a script of one spec leaves behind, in the order
/// `run_requests`, `cache_hits`, `cache_lookup_hits`, `cache_lookup_misses`,
/// `store_hits`, `executions`, `coalesced`.
fn run_counters(server: &Server) -> [u64; 7] {
    let reg = server.metrics();
    [
        "serve.run_requests",
        "serve.cache_hits",
        "serve.cache_lookup_hits",
        "serve.cache_lookup_misses",
        "serve.store_hits",
        "serve.executions",
        "serve.coalesced",
    ]
    .map(|name| counter(&reg, name))
}

#[test]
fn every_run_tier_keeps_its_cache_header_and_counters() {
    let dir = scratch_dir("tiers");
    let cfg = || ServerConfig { store_dir: Some(dir.clone()), ..Default::default() };

    // First life: a cold execution, then an LRU hit.
    let server = Server::start("127.0.0.1:0", cfg()).unwrap();
    let addr = server.local_addr().to_string();
    let cold = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-dresar-cache"), Some("miss"));
    let hit = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(hit.header("x-dresar-cache"), Some("hit"));
    assert_eq!(hit.body, cold.body);
    assert_eq!(run_counters(&server), [2, 1, 1, 1, 0, 1, 0]);
    server.shutdown();

    // Second life on the same store: a disk hit, then a traced request,
    // which looks the digest up (a lookup hit, since the disk hit refilled
    // the LRU) but executes anyway and carries no cache header.
    let reborn = Server::start("127.0.0.1:0", cfg()).unwrap();
    let addr = reborn.local_addr().to_string();
    let disk = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(disk.header("x-dresar-cache"), Some("disk"));
    assert_eq!(disk.body, cold.body);
    let traced =
        http_request_with(&addr, "POST", "/run", &[("X-Dresar-Trace", "pin")], FFT_SPEC).unwrap();
    assert_eq!(traced.status, 200, "{}", traced.body);
    assert_eq!(traced.header("x-dresar-cache"), None);
    assert_eq!(run_counters(&reborn), [2, 0, 1, 1, 1, 1, 0]);
    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_eviction_falls_back_to_the_disk_tier_without_re_executing() {
    // A one-entry LRU over a store: executing B evicts A from memory, but
    // the write-through copy on disk still answers A without a re-run.
    let dir = scratch_dir("evict");
    let cfg = ServerConfig { cache_entries: 1, store_dir: Some(dir.clone()), ..Default::default() };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();

    let a_cold = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(a_cold.status, 200, "{}", a_cold.body);
    let b_spec = r#"{"workload":"TC","scale":"tiny","nodes":16,"sd_entries":256,"seed":3}"#;
    assert_eq!(post_run(&addr, b_spec).unwrap().status, 200);

    let a_again = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(a_again.status, 200);
    assert_eq!(a_again.header("x-dresar-cache"), Some("disk"), "evicted entry must hit disk");
    assert_eq!(a_again.body, a_cold.body, "disk fallback must be byte-identical");
    assert_eq!(counter(&server.metrics(), "serve.executions"), 2, "A and B, never A twice");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_entry_is_quarantined_and_transparently_recomputed() {
    let dir = scratch_dir("corrupt");

    let cfg = ServerConfig { store_dir: Some(dir.clone()), ..Default::default() };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let original = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(original.status, 200, "{}", original.body);
    server.shutdown();

    // Restart with chaos corrupting the first store read: the flipped body
    // bit must fail checksum verification, quarantine the file, and fall
    // through to a fresh execution — never serve damaged bytes.
    let cfg = ServerConfig {
        store_dir: Some(dir.clone()),
        chaos: chaos("store_read_corrupt_nth=1"),
        ..Default::default()
    };
    let reborn = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = reborn.local_addr().to_string();
    let recomputed = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(recomputed.status, 200, "{}", recomputed.body);
    assert_eq!(recomputed.header("x-dresar-cache"), Some("miss"), "corrupt entry must re-run");
    assert_eq!(recomputed.body, original.body, "recomputed body must be byte-identical");

    let reg = reborn.metrics();
    assert_eq!(counter(&reg, "serve.store_corrupt"), 1);
    assert_eq!(counter(&reg, "serve.executions"), 1, "exactly one recompute");

    // The damaged file was renamed aside for post-mortem, and the fresh
    // execution wrote a clean replacement entry.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with(".corrupt")),
        "quarantined file missing from {names:?}"
    );
    assert!(
        names.iter().any(|n| n.ends_with(".result")),
        "replacement entry missing from {names:?}"
    );
    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_expired_in_queue_is_answered_without_burning_a_worker() {
    // Paused workers: the request can only sit in the queue, so its 50ms
    // deadline is guaranteed to lapse before anything executes.
    let cfg = ServerConfig { workers: 1, start_paused: true, ..Default::default() };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();

    let spec = r#"{"workload":"FFT","scale":"tiny","nodes":16,"sd_entries":256,"seed":7,
                   "deadline_ms":50}"#;
    let resp = post_run(&addr, spec).unwrap();
    assert_eq!(resp.status, 503, "expired deadline must be a 503: {}", resp.body);
    assert_eq!(error_code(&resp.body), "deadline_exceeded");
    assert_eq!(resp.header("retry-after"), Some("1"), "deadline replies advertise Retry-After");

    // Release the worker: it dequeues the stale job, sees the lapsed
    // deadline, and drops it — counted, but never executed.
    server.resume_workers();
    wait_until(&server, "stale job dropped at dequeue", |reg| {
        counter(reg, "serve.deadline_expired") == 1
    });
    assert_eq!(counter(&server.metrics(), "serve.executions"), 0, "no worker burned");

    // The server is healthy: the same spec without a deadline completes.
    let ok = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(ok.status, 200, "server must serve normally after a deadline drop: {}", ok.body);
    server.shutdown();
}

#[test]
fn client_retry_policy_absorbs_shed_replies() {
    // A single paused worker and a one-slot queue: the occupant fills the
    // slot and every later request is shed with 429 + Retry-After.
    let cfg = ServerConfig { queue_depth: 1, workers: 1, start_paused: true, ..Default::default() };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();

    let occupant = {
        let addr = addr.clone();
        std::thread::spawn(move || post_run(&addr, FFT_SPEC).unwrap())
    };
    wait_until(&server, "occupant queued", |reg| counter(reg, "serve.scheduled") == 1);

    // A distinct spec under a retry policy: the first attempt is shed, and
    // the backoff schedule carries it past the resume below.
    let retried = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let spec = r#"{"workload":"SOR","scale":"tiny","nodes":16,"sd_entries":256,"seed":9}"#;
            let policy = RetryPolicy { max_retries: 40, base_ms: 25, cap_ms: 100, seed: 1009 };
            post_run_retry(&addr, spec, &policy).unwrap()
        })
    };
    wait_until(&server, "retry client shed at least once", |reg| counter(reg, "serve.shed") >= 1);
    server.resume_workers();

    assert_eq!(occupant.join().unwrap().status, 200);
    let (resp, outcome) = retried.join().unwrap();
    assert_eq!(resp.status, 200, "retries must eventually land: {}", resp.body);
    assert!(outcome.retries >= 1, "the shed reply must have been retried");
    assert!(!outcome.gave_up);
    server.shutdown();
}

/// Drives `n` distinct serial requests against a fresh server armed with
/// `plan` and returns the status sequence — the observable chaos outcome.
fn chaos_status_sequence(plan: &str, n: usize) -> Vec<u16> {
    let cfg = ServerConfig { workers: 1, chaos: chaos(plan), ..Default::default() };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let statuses = (0..n)
        .map(|i| {
            let spec = format!(
                r#"{{"workload":"TC","scale":"tiny","nodes":16,"sd_entries":256,"seed":{i}}}"#
            );
            post_run(&addr, &spec).unwrap().status
        })
        .collect();
    server.shutdown();
    statuses
}

#[test]
fn probabilistic_chaos_outcomes_are_deterministic_per_seed() {
    // The two seeds CI pins. One worker + serial requests align the
    // execution order with the request order, so the ppm draw sequence —
    // and therefore which requests panic — is a pure function of the seed.
    for seed in [1009u64, 7919] {
        let plan = format!("panic_ppm=400000,seed={seed}");
        let first = chaos_status_sequence(&plan, 6);
        let second = chaos_status_sequence(&plan, 6);
        assert_eq!(first, second, "seed {seed} must reproduce its fault schedule");
        assert!(
            first.iter().all(|s| *s == 200 || *s == 500),
            "chaos outcomes are clean runs or contained panics: {first:?}"
        );
    }
}
