//! `dresar_serve` — run the DReSAR simulation service.
//!
//! ```text
//! dresar_serve [--addr HOST:PORT] [--queue-depth N] [--workers N] [--cache N]
//!              [--store-dir PATH] [--max-deadline-ms N] [--chaos SPEC]
//! ```
//!
//! Serves until a client sends `POST /shutdown`, then drains queued
//! executions and exits. Defaults: addr 127.0.0.1:8757, queue depth 64,
//! workers sized from `DRESAR_SWEEP_THREADS` (else one per core), cache of
//! 128 results.
//!
//! `--store-dir` enables the durable result store: every fresh execution is
//! persisted under the directory (one content-addressed file per digest),
//! and a restarted server re-serves those digests byte-identically without
//! recomputing. `--max-deadline-ms` caps per-request `deadline_ms` values.
//! `--chaos` (or the `DRESAR_SERVE_CHAOS` environment variable, which
//! `--chaos` overrides) arms the seeded fault-injection plan — a test
//! harness, never for production.
//!
//! A bad command line is refused with exit status 2 and one
//! `error[<code>]` line on stderr, as `dresar` refuses one
//! ([`dresar_bench::cli::CliError`]).

use dresar_bench::cli::{flag_value, parse_count, CliError, ErrorCode};
use dresar_server::serve::{Server, ServerConfig};
use dresar_server::ServeFaultPlan;

const USAGE: &str = "usage: dresar_serve [--addr HOST:PORT] [--queue-depth N] [--workers N] \
                     [--cache N] [--store-dir PATH] [--max-deadline-ms N] [--chaos SPEC]";

fn main() {
    let (addr, cfg) = parse_args().unwrap_or_else(|e| e.exit());
    let server = match Server::start(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start on {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("dresar-serve listening on {} (POST /shutdown to stop)", server.local_addr());
    server.join();
    eprintln!("dresar-serve drained and stopped");
}

/// Parses the command line into the listen address and the server
/// configuration. `--help` prints the usage and exits.
fn parse_args() -> Result<(String, ServerConfig), CliError> {
    let mut addr = "127.0.0.1:8757".to_string();
    let mut cfg = ServerConfig::default();
    let mut chaos = std::env::var("DRESAR_SERVE_CHAOS").ok();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || flag_value(&arg, args.next());
        match arg.as_str() {
            "--addr" => addr = value()?,
            "--queue-depth" => cfg.queue_depth = parse_count(&arg, &value()?)?,
            "--workers" => cfg.workers = parse_count(&arg, &value()?)?,
            "--cache" => cfg.cache_entries = parse_count(&arg, &value()?)?,
            "--store-dir" => cfg.store_dir = Some(value()?.into()),
            "--max-deadline-ms" => {
                let ms = parse_count(&arg, &value()?)?;
                if ms == 0 {
                    return Err(CliError::new(
                        ErrorCode::BadField,
                        "--max-deadline-ms must be positive",
                    ));
                }
                cfg.max_deadline = std::time::Duration::from_millis(ms as u64);
            }
            "--chaos" => chaos = Some(value()?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => {
                return Err(CliError::new(
                    ErrorCode::UnknownField,
                    format!("unknown flag '{other}' for dresar_serve (try --help)"),
                ))
            }
        }
    }
    if let Some(spec) = chaos {
        let plan = ServeFaultPlan::parse(&spec).map_err(|e| {
            CliError::new(ErrorCode::BadFaults, format!("bad chaos spec '{spec}': {e}"))
        })?;
        if plan.is_active() {
            eprintln!("dresar-serve: CHAOS ARMED ({spec}) — fault injection is live");
        }
        cfg.chaos = Some(plan);
    }
    Ok((addr, cfg))
}
