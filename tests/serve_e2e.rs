//! End-to-end tests for the `dresar-serve` service: real sockets, real
//! engine executions, and the three serving mechanisms proven over the
//! wire — content-addressed caching (cold vs warm, byte-identical),
//! request coalescing (N identical concurrent requests, one execution),
//! and bounded admission (structured 429 shed, server healthy after).
//!
//! Concurrency assertions are made deterministic, not timing-dependent, by
//! starting the engine workers paused: requests pile up, the test polls the
//! server's own metrics until every request has registered, and only then
//! releases the workers.

use dresar_obs::{MetricValue, MetricsRegistry};
use dresar_server::client::{http_request, http_request_with, post_run, stream_metrics};
use dresar_server::serve::{Server, ServerConfig};
use dresar_types::JsonValue;
use std::io::{Read, Write};
use std::sync::mpsc;
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

#[test]
fn cold_then_warm_request_hits_the_cache_byte_identically() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let cold = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(cold.status, 200, "cold run failed: {}", cold.body);
    let warm = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(cold.body, warm.body, "warm body must be byte-identical to the cold run");

    let reg = server.metrics();
    assert_eq!(counter(&reg, "serve.executions"), 1, "warm request must not re-execute");
    assert!(counter(&reg, "serve.cache_hits") >= 1);
    let doc = JsonValue::parse(&cold.body).unwrap();
    assert!(doc.get("report").and_then(|r| r.get("cycles")).is_some());
    server.shutdown();
}

#[test]
fn concurrent_identical_requests_coalesce_into_one_execution() {
    let cfg = ServerConfig { queue_depth: 8, workers: 2, start_paused: true, ..Default::default() };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();

    // Four identical requests plus two distinct ones, all while the
    // workers are paused — nothing can execute or hit the cache yet.
    let identical: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || post_run(&addr, FFT_SPEC).unwrap())
        })
        .collect();
    let distinct: Vec<_> = [1u64, 2]
        .iter()
        .map(|seed| {
            let addr = addr.clone();
            let spec = format!(
                r#"{{"workload":"TC","scale":"tiny","nodes":16,"sd_entries":256,"seed":{seed}}}"#
            );
            std::thread::spawn(move || post_run(&addr, &spec).unwrap())
        })
        .collect();

    // All six must be registered — 3 leaders queued, 3 followers attached
    // to the FFT leader — before the engine is released.
    wait_until(&server, "6 requests registered, 3 coalesced", |reg| {
        counter(reg, "serve.run_requests") == 6
            && counter(reg, "serve.coalesced") == 3
            && counter(reg, "serve.scheduled") == 3
    });
    server.resume_workers();

    let fft_bodies: Vec<String> = identical
        .into_iter()
        .map(|h| {
            let resp = h.join().unwrap();
            assert_eq!(resp.status, 200, "coalesced request failed: {}", resp.body);
            resp.body
        })
        .collect();
    for body in &fft_bodies[1..] {
        assert_eq!(body, &fft_bodies[0], "coalesced responses must be byte-identical");
    }
    for h in distinct {
        let resp = h.join().unwrap();
        assert_eq!(resp.status, 200, "distinct request failed: {}", resp.body);
    }

    let reg = server.metrics();
    assert_eq!(counter(&reg, "serve.executions"), 3, "4 identical + 2 distinct = 3 executions");
    assert_eq!(counter(&reg, "serve.coalesced"), 3);
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_structured_429_and_recovers() {
    let cfg = ServerConfig { queue_depth: 1, workers: 1, start_paused: true, ..Default::default() };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();

    // Fill the single queue slot with a request the paused worker cannot
    // drain.
    let occupant = {
        let addr = addr.clone();
        std::thread::spawn(move || post_run(&addr, FFT_SPEC).unwrap())
    };
    wait_until(&server, "occupant queued", |reg| counter(reg, "serve.scheduled") == 1);

    // A distinct request now has nowhere to go: structured shed.
    let shed_spec = r#"{"workload":"SOR","scale":"tiny","nodes":16,"sd_entries":256,"seed":9}"#;
    let shed = post_run(&addr, shed_spec).unwrap();
    assert_eq!(shed.status, 429, "full queue must shed: {}", shed.body);
    assert_eq!(error_code(&shed.body), "overloaded");
    assert_eq!(
        shed.header("retry-after"),
        Some("1"),
        "shed replies must advertise Retry-After so clients can back off"
    );
    assert!(counter(&server.metrics(), "serve.shed") >= 1);

    // Release the engine: the occupant completes, and the server keeps
    // serving new work after having shed.
    server.resume_workers();
    let resp = occupant.join().unwrap();
    assert_eq!(resp.status, 200, "queued request failed: {}", resp.body);
    let retry = post_run(&addr, shed_spec).unwrap();
    assert_eq!(retry.status, 200, "server must recover after shedding: {}", retry.body);
    server.shutdown();
}

#[test]
fn malformed_requests_get_distinct_machine_readable_errors() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    // 20 KB of nesting: past the parser's depth bound, and deep enough to
    // overflow a worker's stack if the parser recursed without one.
    let nested = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let cases: [(&str, &str); 5] = [
        ("{not json", "bad_json"),
        (&nested, "bad_json"),
        (r#"{"workload":"FFT","entires":512}"#, "unknown_field"),
        (r#"{"workload":"FFT","sd_entries":100}"#, "bad_sd_size"),
        (r#"{"workload":"FFT","nodes":12}"#, "bad_topology"),
    ];
    for (body, code) in cases {
        let resp = post_run(&addr, body).unwrap();
        assert_eq!(resp.status, 400, "{code}: {}", resp.body);
        assert_eq!(error_code(&resp.body), code);
    }

    // A client that promises more bytes than it sends gets the dedicated
    // truncated-body error, not a hang or a generic failure.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"work").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    raw.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "truncated body response: {resp}");
    let body = resp.split("\r\n\r\n").nth(1).unwrap_or("");
    assert_eq!(error_code(body), "truncated_body");

    let resp = http_request(&addr, "GET", "/nowhere", "").unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp.body), "not_found");

    let run = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(run.status, 200, "server must keep serving after bad requests: {}", run.body);
    server.shutdown();
}

#[test]
fn health_and_metrics_endpoints_serve_json() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let health = http_request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    let doc = JsonValue::parse(&health.body).unwrap();
    assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));

    let run = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(run.status, 200, "{}", run.body);

    let metrics = http_request(&addr, "GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200);
    let doc = JsonValue::parse(&metrics.body).unwrap();
    let m = doc.get("metrics").expect("metrics section");
    assert!(m.get("serve.run_requests").is_some());
    assert!(m.get("serve.executions").is_some());
    assert!(doc.get("host").and_then(|h| h.get("uptime_seconds")).is_some());
    server.shutdown();
}

#[test]
fn metrics_endpoint_negotiates_prometheus_text_exposition() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let run = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(run.status, 200, "{}", run.body);

    // Either the query parameter or an Accept header selects the text
    // format; the default stays JSON.
    let by_query = http_request(&addr, "GET", "/metrics?format=prom", "").unwrap();
    assert_eq!(by_query.status, 200);
    assert_eq!(by_query.header("content-type"), Some("text/plain; version=0.0.4"));
    assert!(
        by_query.body.contains("# TYPE serve_run_requests counter"),
        "missing counter exposition: {}",
        by_query.body
    );
    assert!(by_query.body.contains("serve_queue_depth_peak"), "gauge peak companion missing");
    assert!(
        by_query.body.contains("serve_service_us_log2_bucket{le=\"+Inf\"}"),
        "histogram +Inf bucket missing: {}",
        by_query.body
    );

    let by_accept =
        http_request_with(&addr, "GET", "/metrics", &[("Accept", "text/plain")], "").unwrap();
    assert_eq!(by_accept.status, 200);
    assert!(by_accept.body.starts_with("# TYPE"), "Accept negotiation failed");

    let json = http_request(&addr, "GET", "/metrics", "").unwrap();
    assert!(JsonValue::parse(&json.body).is_ok(), "default /metrics must stay JSON");
    // Per-digest service histograms surface once a run completed.
    assert!(
        json.body.contains("\"serve.digest."),
        "per-digest latency hist missing: {}",
        json.body
    );
    server.shutdown();
}

#[test]
fn timing_headers_split_queue_wait_from_execution_and_mark_cache_hits() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let cold = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-dresar-cache"), Some("miss"));
    assert!(cold.header_u64("x-dresar-queue-us").is_some(), "cold run must report queue wait");
    assert!(cold.header_u64("x-dresar-exec-us").is_some(), "cold run must report execute time");

    let warm = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-dresar-cache"), Some("hit"));
    assert_eq!(warm.header("x-dresar-exec-us"), None, "cache hits execute nothing");
    assert_eq!(cold.body, warm.body, "timing headers must not perturb the cached body");
    server.shutdown();
}

#[test]
fn traced_run_merges_server_and_simulator_spans_into_one_document() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let resp =
        http_request_with(&addr, "POST", "/run", &[("X-Dresar-Trace", "e2e-txn-001")], FFT_SPEC)
            .unwrap();
    assert_eq!(resp.status, 200, "traced run failed: {}", resp.body);
    assert_eq!(resp.header("x-dresar-trace"), Some("e2e-txn-001"));
    assert!(resp.header_u64("x-dresar-queue-us").is_some());
    assert!(resp.header_u64("x-dresar-exec-us").is_some());

    let doc = JsonValue::parse(&resp.body).expect("merged trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("object-form trace with traceEvents");
    let pid_of = |e: &JsonValue| e.get("pid").and_then(JsonValue::as_u64);
    // Server request spans live on their own process track...
    let server_spans: Vec<&JsonValue> = events
        .iter()
        .filter(|e| pid_of(e) == Some(100) && e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .collect();
    for phase in ["admission", "cache_lookup", "queue_wait", "execute", "serialize"] {
        assert!(
            server_spans.iter().any(|e| e.get("name").and_then(JsonValue::as_str) == Some(phase)),
            "missing server phase span '{phase}'"
        );
    }
    // ...each carrying the trace id that links them to this request.
    for e in &server_spans {
        assert_eq!(
            e.get("args").and_then(|a| a.get("trace_id")).and_then(JsonValue::as_str),
            Some("e2e-txn-001")
        );
    }
    // And the simulator's causal spans are spliced into the same array.
    assert!(
        events.iter().any(|e| pid_of(e) == Some(0)
            && e.get("name").and_then(JsonValue::as_str) == Some("read_miss")),
        "simulator read spans missing from the merged document"
    );
    // The dresar section ties the document back to the request.
    let meta = doc.get("dresar").expect("dresar metadata section");
    assert_eq!(meta.get("trace_id").and_then(JsonValue::as_str), Some("e2e-txn-001"));
    assert!(meta.get("phases_us").and_then(|p| p.get("execute_us")).is_some());
    server.shutdown();
}

#[test]
fn metrics_stream_pushes_bounded_sse_frames_with_windowed_deltas() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    // Do one run so the stream has non-trivial counters to report, then
    // ask for exactly 3 frames at a fast interval.
    let run = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(run.status, 200, "{}", run.body);

    let mut frames = Vec::new();
    let n = stream_metrics(&addr, "frames=3&interval_ms=50", |data| {
        frames.push(data.to_string());
        true
    })
    .expect("stream completed");
    assert_eq!(n, 3, "frames=3 must deliver exactly 3 events");
    assert_eq!(frames.len(), 3);

    for (i, raw) in frames.iter().enumerate() {
        let frame = JsonValue::parse(raw).expect("frame payload is JSON");
        assert_eq!(frame.get("seq").and_then(JsonValue::as_u64), Some(i as u64));
        let metrics = frame.get("metrics").expect("cumulative metrics section");
        assert!(metrics.get("serve.run_requests").is_some());
        assert!(frame.get("window").is_some(), "windowed delta section missing");
    }
    // The run happened before the first frame, so its counters land in
    // frame 0's window (deltas vs zero) and NOT in later windows — the
    // stream reports rates, not a monotone ramp.
    let first = JsonValue::parse(&frames[0]).unwrap();
    let window_requests = |f: &JsonValue| {
        f.get("window").and_then(|w| w.get("serve.run_requests")).and_then(JsonValue::as_u64)
    };
    assert_eq!(window_requests(&first), Some(1), "first window counts the pre-stream run");
    let last = JsonValue::parse(&frames[2]).unwrap();
    assert_eq!(window_requests(&last), Some(0), "idle window must report zero delta");

    // The stream registered itself in the very metrics it reports.
    let reg = server.metrics();
    assert_eq!(counter(&reg, "serve.metric_streams"), 1);
    server.shutdown();
}

#[test]
fn anomalous_run_deposits_a_flight_dump_retrievable_over_http() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    // Before any anomalous run: a structured 404, not an empty document.
    let early = http_request(&addr, "GET", "/debug/flight", "").unwrap();
    assert_eq!(early.status, 404);
    assert_eq!(error_code(&early.body), "no_flight_dump");

    // Permanently lose a WriteReply: the write can never complete, the
    // watchdog trips, and the run is anomalous — the always-on flight
    // recorder's dump must land in the debug endpoint.
    let faulted = r#"{"workload":"FFT","scale":"tiny","nodes":16,"sd_entries":256,"seed":7,
                      "faults":"lose_kind=WriteReply,lose_nth=1"}"#;
    let run = post_run(&addr, faulted).unwrap();
    assert_eq!(run.status, 200, "faulted run must still serve a report: {}", run.body);
    let doc = JsonValue::parse(&run.body).unwrap();
    assert!(
        doc.get("report").and_then(|r| r.get("watchdog")).is_some(),
        "expected a watchdog trip in the report: {}",
        run.body
    );

    let flight = http_request(&addr, "GET", "/debug/flight", "").unwrap();
    assert_eq!(flight.status, 200, "{}", flight.body);
    let dump = JsonValue::parse(&flight.body).expect("flight dump is JSON");
    let records = dump.get("records").and_then(JsonValue::as_arr).expect("dump has records");
    assert!(!records.is_empty(), "flight dump must not be empty after an anomaly");
    assert!(dump.get("total").and_then(JsonValue::as_u64).unwrap_or(0) > 0);
    server.shutdown();
}

/// Runs `stop` on its own thread and requires it to return within 5 s: a
/// drain that misses its wake-up fails here instead of hanging the suite.
fn returns_within_5s(what: &str, stop: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        stop();
        let _ = done.send(());
    });
    assert!(finished.recv_timeout(Duration::from_secs(5)).is_ok(), "{what} took over 5 s");
}

#[test]
fn post_shutdown_drains_and_join_returns() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let reply = http_request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, "{\"draining\":true}\n");
    returns_within_5s("Server::join after POST /shutdown", move || server.join());
}

#[test]
fn a_server_bound_to_the_unspecified_address_still_shuts_down() {
    // An unspecified address is no address to connect to: the stop path
    // wakes the acceptor through the loopback address of its family.
    let server = Server::start("0.0.0.0:0", ServerConfig::default()).unwrap();
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    let reply = http_request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(reply.status, 200);
    returns_within_5s("Server::join on 0.0.0.0 after POST /shutdown", move || server.join());

    let server = Server::start("0.0.0.0:0", ServerConfig::default()).unwrap();
    returns_within_5s("Server::shutdown on 0.0.0.0", move || server.shutdown());
}

#[test]
fn sequential_cache_hits_do_not_wait_on_the_acceptor() {
    // One closed-loop client, one new connection per request: each hit is
    // accepted as soon as it connects. An acceptor that polls would add
    // its poll interval to every one of them.
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let cold = post_run(&addr, FFT_SPEC).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);

    let t0 = Instant::now();
    for _ in 0..100 {
        let hit = post_run(&addr, FFT_SPEC).unwrap();
        assert_eq!(hit.status, 200);
        assert_eq!(hit.header("X-Dresar-Cache"), Some("hit"));
    }
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_millis(500), "100 sequential hits took {elapsed:?}");
    server.shutdown();
}

#[test]
fn shutdown_ends_an_open_metrics_stream_without_waiting_out_its_interval() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let (first, first_seen) = mpsc::channel();
    let watcher = std::thread::spawn(move || {
        // Unbounded, one frame a minute: only the drain can end it soon.
        stream_metrics(&addr, "interval_ms=60000", |_| {
            let _ = first.send(());
            true
        })
    });
    first_seen.recv_timeout(Duration::from_secs(30)).expect("first frame");
    returns_within_5s("Server::shutdown with an open metrics stream", move || server.shutdown());
    // The drain wakes the stream: at most one last frame, then the
    // terminating chunk.
    let frames = watcher.join().unwrap().expect("stream ends cleanly");
    assert!((1..=2).contains(&frames), "{frames} frames");
}
