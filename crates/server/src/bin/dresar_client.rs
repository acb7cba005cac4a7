//! `dresar_client` — load generator and admin client for `dresar-serve`.
//!
//! ```text
//! dresar_client [--addr HOST:PORT] [--requests N] [--concurrency N]
//!               [--retries N] [--backoff-ms M] [--retry-seed S] [--json]
//! dresar_client [--addr HOST:PORT] --watch [--frames N] [--interval-ms M]
//! dresar_client [--addr HOST:PORT] --shutdown
//! ```
//!
//! Drives the default request mix (distinct + repeated specs, so the run
//! exercises executions, cache hits and coalescing together) and prints the
//! per-status counts plus p50/p95/p99 service times. `--json` emits the
//! machine-readable report document on stdout; `--shutdown` instead asks
//! the server to drain and exit.
//!
//! `--retries` enables client-side retry of shed (429) and draining /
//! deadline (503) replies with capped exponential backoff and seeded
//! jitter; the server's `Retry-After` hint is honored as a floor.
//! `--backoff-ms` sets the first wait (doubling per retry, capped at 40x),
//! and `--retry-seed` pins the jitter schedule for reproducible runs. The
//! report then includes how many retries were absorbed and how many
//! requests gave up still shed.
//!
//! `--watch` subscribes to `GET /metrics/stream` and renders one line per
//! frame with the counters that moved inside that frame's window (`--json`
//! prints each frame's raw payload instead). `--frames 0` (the default)
//! watches until the server drains or the connection drops.
//!
//! A bad command line is refused with exit status 2 and one
//! `error[<code>]` line on stderr, as `dresar` refuses one
//! ([`dresar_bench::cli::CliError`]).

use dresar_bench::cli::{flag_value, parse_count, CliError, ErrorCode};
use dresar_server::client::{
    default_mix, http_request, run_load, stream_metrics, LoadOptions, RetryPolicy,
};
use dresar_types::{JsonValue, ToJson};

const USAGE: &str = "usage: dresar_client [--addr HOST:PORT] [--requests N] [--concurrency N] \
                     [--retries N] [--backoff-ms M] [--retry-seed S] [--json] | \
                     --watch [--frames N] [--interval-ms M] | --shutdown";

/// A parsed command line.
struct Args {
    addr: String,
    opts: LoadOptions,
    json: bool,
    shutdown: bool,
    watch: bool,
    frames: usize,
    interval_ms: usize,
}

/// Parses the command line. `--help` prints the usage and exits.
fn parse_args() -> Result<Args, CliError> {
    let mut a = Args {
        addr: "127.0.0.1:8757".to_string(),
        opts: LoadOptions::default(),
        json: false,
        shutdown: false,
        watch: false,
        frames: 0,
        interval_ms: 1000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || flag_value(&arg, args.next());
        match arg.as_str() {
            "--addr" => a.addr = value()?,
            "--requests" => a.opts.total = parse_count(&arg, &value()?)?,
            "--concurrency" => a.opts.concurrency = parse_count(&arg, &value()?)?,
            "--retries" => {
                let n = parse_count(&arg, &value()?)?;
                a.opts.retry.get_or_insert_with(RetryPolicy::default).max_retries = n as u32;
            }
            "--backoff-ms" => {
                let base = parse_count(&arg, &value()?)?.max(1) as u64;
                let policy = a.opts.retry.get_or_insert_with(RetryPolicy::default);
                policy.base_ms = base;
                policy.cap_ms = base.saturating_mul(40);
            }
            "--retry-seed" => {
                let seed = parse_count(&arg, &value()?)? as u64;
                a.opts.retry.get_or_insert_with(RetryPolicy::default).seed = seed;
            }
            "--json" => a.json = true,
            "--shutdown" => a.shutdown = true,
            "--watch" => a.watch = true,
            "--frames" => a.frames = parse_count(&arg, &value()?)?,
            "--interval-ms" => a.interval_ms = parse_count(&arg, &value()?)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => {
                return Err(CliError::new(
                    ErrorCode::UnknownField,
                    format!("unknown flag '{other}' for dresar_client (try --help)"),
                ))
            }
        }
    }
    Ok(a)
}

fn main() {
    let Args { addr, opts, json, shutdown, watch, frames, interval_ms } =
        parse_args().unwrap_or_else(|e| e.exit());
    if shutdown {
        match http_request(&addr, "POST", "/shutdown", "") {
            Ok(resp) => eprintln!("shutdown requested: HTTP {}", resp.status),
            Err(e) => {
                eprintln!("error: shutdown request to {addr} failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if watch {
        let query = format!("frames={frames}&interval_ms={interval_ms}");
        let outcome = stream_metrics(&addr, &query, |data| {
            if json {
                println!("{data}");
                return true;
            }
            render_frame(data);
            true
        });
        match outcome {
            Ok(n) => eprintln!("stream ended after {n} frames"),
            Err(e) => {
                eprintln!("error: metrics stream from {addr} failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let report = run_load(&addr, &default_mix(), &opts);
    if json {
        let doc = dresar_bench::json_doc("dresar-client")
            .field("addr", addr.as_str())
            .field("report", report.to_json())
            .build();
        println!("{}", doc.dump());
    } else {
        eprintln!(
            "{} requests ({} transport errors, {} cache hits) against {addr}",
            report.total, report.transport_errors, report.cache_hits
        );
        if opts.retry.is_some() {
            eprintln!(
                "  retries absorbed: {} (gave up still shed: {})",
                report.retries, report.give_ups
            );
        }
        for (status, count) in &report.by_status {
            eprintln!("  HTTP {status}: {count}");
        }
        // End-to-end latency, then the server-reported split for fresh
        // executions: time spent waiting in the admission queue vs time
        // actually simulating. A queue-dominated profile means the server
        // needs more workers; an execute-dominated one means the specs are
        // simply expensive.
        let fmt = |v: Option<f64>| match v {
            Some(us) => format!("{us:.0} us"),
            None => "n/a".to_string(),
        };
        for p in [50.0, 95.0, 99.0] {
            eprintln!(
                "  p{p:.0}: {} (queue {}, execute {})",
                fmt(report.percentile_us(p)),
                fmt(report.queue_percentile_us(p)),
                fmt(report.exec_percentile_us(p))
            );
        }
    }
    if report.transport_errors > 0 {
        std::process::exit(1);
    }
}

/// One human-readable line per stream frame: the sequence number, host
/// uptime, and every counter that moved inside this frame's window. Frames
/// where nothing moved print `(idle)` so the watcher still sees a
/// heartbeat.
fn render_frame(data: &str) {
    let frame = match JsonValue::parse(data) {
        Ok(v) => v,
        Err(_) => {
            eprintln!("unparseable frame: {data}");
            return;
        }
    };
    let seq = frame.get("seq").and_then(JsonValue::as_u64).unwrap_or(0);
    let uptime = frame.get("uptime_seconds").and_then(JsonValue::as_f64).unwrap_or(0.0);
    let mut moved = Vec::new();
    if let Some(JsonValue::Obj(fields)) = frame.get("window") {
        for (name, v) in fields {
            match v.as_u64() {
                Some(0) | None => {}
                Some(delta) => moved.push(format!("{name} +{delta}")),
            }
        }
    }
    if moved.is_empty() {
        eprintln!("frame {seq} @{uptime:.1}s (idle)");
    } else {
        eprintln!("frame {seq} @{uptime:.1}s {}", moved.join("  "));
    }
}
