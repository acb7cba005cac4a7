//! `bench_report` — the repo's standard telemetry run and regression gate.
//!
//! Runs the figure/ablation configurations (base and 1K-entry switch
//! directory per workload) plus a deterministic crossbar validation batch,
//! and writes one schema-versioned document, `BENCH_dresar.json`, holding
//! each run's component-metrics registry. Everything in `runs` is a
//! deterministic simulation counter: two same-seed invocations produce
//! byte-identical `runs` sections. The `host` section (wall-clock phases,
//! simulated cycles/sec, peak RSS) is measured on the host and therefore
//! nondeterministic; it is recorded for humans and never compared.
//!
//! Usage:
//!
//! ```text
//! bench_report [tiny|reduced|paper] [--out PATH] [--heatmap PATH]
//!              [--scaling PATH] [--protocols PATH]
//!              [--baseline PATH [--tolerance PCT] [--informational]]
//! ```
//!
//! `--scaling` and `--protocols` each write one switch-directory benefit
//! figure as markdown ([`dresar_bench::benefit`]): the machine-size sweep
//! (16/64/256-node radix-4 BMINs under MSI) and the coherence-protocol
//! ablation (MSI, MESI, MOESI and the directoryless-shared-LLC baseline on
//! the paper's 16-node machine), each at base and two switch-directory
//! sizes on two workloads. Every run is audited, and the figure holds only
//! deterministic counters, so it is byte-identical across sweep thread
//! counts. The sweeps run inside the host-profiler window, so the main
//! document's `host.profile` (and its VmHWM peak) covers the 256-node
//! machines — the CI figure job gates on that number.
//!
//! A bad command line exits 2 with one `error[<code>]` line on stderr
//! ([`dresar_bench::cli::CliError`]).
//!
//! With `--heatmap`, a second schema-versioned document is written holding
//! the topology contention heatmap sweep: every execution-driven workload
//! at base and sd1024, each run carrying its metrics, per-phase latency
//! breakdown and per-resource contention attribution (the input format of
//! `dresar_diff`). Like `runs`, the heatmap document is byte-identical
//! across thread counts.
//!
//! With `--baseline`, the freshly produced registries are diffed scalar-by-
//! scalar against the baseline document. Any scalar whose relative change
//! exceeds the tolerance (percent, default 0 — exact match) is a
//! regression: they are listed on stderr and the process exits nonzero,
//! unless `--informational` downgrades the gate to reporting only (the
//! mode CI uses on pull requests).

use dresar_bench::benefit::{PROTOCOLS, SCALING};
use dresar_bench::cli::{parse_scale, CliError, ErrorCode};
use dresar_bench::sweep::{heatmap_runs, standard_runs, RunResult, SweepRunner};
use dresar_bench::{json_doc, suite};
use dresar_obs::{HostProfiler, MetricsRegistry};
use dresar_types::{FromJson, JsonValue, ToJson, SCHEMA_VERSION};
use dresar_workloads::Scale;
use std::process::ExitCode;

struct Args {
    scale: Scale,
    out: String,
    heatmap: Option<String>,
    scaling: Option<String>,
    protocols: Option<String>,
    baseline: Option<String>,
    tolerance_pct: f64,
    informational: bool,
}

fn parse_args() -> Result<Args, CliError> {
    let mut args = Args {
        scale: Scale::Tiny,
        out: "BENCH_dresar.json".into(),
        heatmap: None,
        scaling: None,
        protocols: None,
        baseline: None,
        tolerance_pct: 0.0,
        informational: false,
    };
    let mut scale: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            if let Some(first) = &scale {
                return Err(CliError::new(
                    ErrorCode::UnknownField,
                    format!("unexpected argument '{a}' after scale '{first}'"),
                ));
            }
            args.scale = parse_scale(&a)?;
            scale = Some(a);
            continue;
        }
        let mut value = || {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| CliError::new(ErrorCode::BadField, format!("{a} needs a value")))
        };
        match a.as_str() {
            "--informational" => args.informational = true,
            "--out" => args.out = value()?,
            "--heatmap" => args.heatmap = Some(value()?),
            "--scaling" => args.scaling = Some(value()?),
            "--protocols" => args.protocols = Some(value()?),
            "--baseline" => args.baseline = Some(value()?),
            "--tolerance" => {
                let v = value()?;
                let pct = v.parse::<f64>().ok().filter(|p| p.is_finite() && *p >= 0.0);
                args.tolerance_pct = pct.ok_or_else(|| {
                    CliError::new(
                        ErrorCode::BadField,
                        format!("--tolerance wants a non-negative percentage, got '{v}'"),
                    )
                })?;
            }
            _ => {
                return Err(CliError::new(
                    ErrorCode::UnknownField,
                    format!("unknown flag '{a}' for bench_report"),
                ))
            }
        }
    }
    Ok(args)
}

fn total_sim_cycles(runs: &[RunResult]) -> u64 {
    use dresar_obs::MetricValue;
    runs.iter()
        .flat_map(|r| [r.metrics.get("sim.cycles"), r.metrics.get("trace.exec_cycles")])
        .filter_map(|v| match v {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        })
        .sum()
}

/// Parses the `runs` array of a `bench_report` document into name→registry.
fn parse_runs(doc: &JsonValue) -> Result<Vec<(String, MetricsRegistry)>, String> {
    if let Some(v) = doc.get("schema_version").and_then(JsonValue::as_u64) {
        if v != SCHEMA_VERSION as u64 {
            eprintln!(
                "bench_report: note: baseline schema_version {v} differs from current \
                 {SCHEMA_VERSION}; comparing anyway"
            );
        }
    }
    let Some(JsonValue::Arr(runs)) = doc.get("runs") else {
        return Err("document has no `runs` array".into());
    };
    runs.iter()
        .map(|r| {
            let name = r
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("run entry missing `name`")?
                .to_string();
            let metrics = r.get("metrics").ok_or("run entry missing `metrics`")?;
            let reg =
                MetricsRegistry::from_json(metrics).map_err(|e| format!("run '{name}': {e}"))?;
            Ok((name, reg))
        })
        .collect()
}

/// Compares current runs against a baseline document. Returns the number of
/// regressions (scalar changes beyond tolerance, plus whole runs that
/// appeared or disappeared).
fn compare(
    current: &[RunResult],
    baseline: &[(String, MetricsRegistry)],
    tolerance_pct: f64,
) -> usize {
    let tol = tolerance_pct / 100.0;
    let mut regressions = 0usize;
    for (name, base_reg) in baseline {
        let Some(cur) = current.iter().find(|r| &r.name == name) else {
            eprintln!("REGRESSION {name}: run present in baseline but not produced");
            regressions += 1;
            continue;
        };
        for d in cur.metrics.diff(base_reg) {
            let rel = d.rel_change();
            if rel.abs() > tol {
                eprintln!(
                    "REGRESSION {name}/{}: baseline {:?} -> current {:?} ({:+.2}%)",
                    d.name,
                    d.baseline,
                    d.current,
                    rel * 100.0
                );
                regressions += 1;
            }
        }
    }
    for r in current {
        if !baseline.iter().any(|(n, _)| n == &r.name) {
            eprintln!("REGRESSION {}: run not present in baseline (record a new one)", r.name);
            regressions += 1;
        }
    }
    regressions
}

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|e| e.exit());

    let mut prof = HostProfiler::new();
    prof.phase("sweep");
    let benches = suite(args.scale);
    // Shards workload chains across cores; the run list is sorted by name
    // so the document is byte-identical to a serial execution.
    let (runs, timings) = standard_runs(&benches, SweepRunner::from_env());
    for t in &timings {
        prof.run_timing(&t.name, t.wall_seconds);
    }
    // The benefit sweeps run inside the profiled window on purpose: the
    // 256-node machines dominate peak RSS, and the CI figure job gates on
    // the `host.profile` VmHWM this run records.
    let figures: Vec<(String, String, String)> =
        [(SCALING, &args.scaling), (PROTOCOLS, &args.protocols)]
            .into_iter()
            .filter_map(|(fig, path)| {
                let path = path.clone()?;
                prof.phase(fig.name);
                let runs = fig.runs(args.scale, SweepRunner::from_env());
                let summary = format!("{} {} runs -> {path}", runs.len(), fig.name);
                Some((path, fig.render(args.scale, &runs), summary))
            })
            .collect();
    prof.phase("report");
    let sim_cycles = total_sim_cycles(&runs);

    let runs_json: Vec<JsonValue> = runs
        .iter()
        .map(|r| {
            JsonValue::obj()
                .field("name", r.name.as_str())
                .field("metrics", r.metrics.to_json())
                .build()
        })
        .collect();
    let host = prof.finish();
    let doc = json_doc("bench_report")
        .field("scale", format!("{:?}", args.scale))
        .field("runs", runs_json)
        .field(
            "host",
            JsonValue::obj()
                .field("profile", host.to_json())
                .field("simulated_cycles", sim_cycles)
                .field("cycles_per_sec", host.cycles_per_sec(sim_cycles))
                .build(),
        )
        .build();
    let mut text = doc.dump();
    text.push('\n');
    if let Err(e) = std::fs::write(&args.out, &text) {
        eprintln!("bench_report: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!(
        "bench_report: {} runs at scale {:?} -> {} ({} simulated cycles, {:.0} cycles/sec)",
        runs.len(),
        args.scale,
        args.out,
        sim_cycles,
        host.cycles_per_sec(sim_cycles)
    );

    for (path, text, summary) in &figures {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("bench_report: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("bench_report: {summary}");
    }

    if let Some(hm_path) = &args.heatmap {
        let hm_runs = heatmap_runs(&benches, SweepRunner::from_env());
        let hm_json: Vec<JsonValue> = hm_runs.iter().map(ToJson::to_json).collect();
        let hm_doc = json_doc("heatmap")
            .field("scale", format!("{:?}", args.scale))
            .field("runs", hm_json)
            .build();
        let mut hm_text = hm_doc.dump();
        hm_text.push('\n');
        if let Err(e) = std::fs::write(hm_path, &hm_text) {
            eprintln!("bench_report: cannot write {hm_path}: {e}");
            return ExitCode::from(2);
        }
        let critical = hm_runs
            .iter()
            .filter_map(|r| r.heatmap.critical.as_ref().map(|c| (&r.name, c)))
            .max_by(|a, b| a.1.utilization.total_cmp(&b.1.utilization));
        match critical {
            Some((name, c)) => println!(
                "bench_report: {} heatmap runs -> {hm_path} (hottest: {name} {} at {:.1}%)",
                hm_runs.len(),
                c.resource,
                100.0 * c.utilization
            ),
            None => println!("bench_report: {} heatmap runs -> {hm_path}", hm_runs.len()),
        }
    }

    let Some(baseline_path) = &args.baseline else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))
        .and_then(|s| {
            JsonValue::parse(&s).map_err(|e| format!("cannot parse {baseline_path}: {e}"))
        })
        .and_then(|doc| parse_runs(&doc))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_report: {e}");
            return ExitCode::from(2);
        }
    };
    let regressions = compare(&runs, &baseline, args.tolerance_pct);
    if regressions == 0 {
        println!(
            "bench_report: 0 regressions vs {baseline_path} (tolerance {}%)",
            args.tolerance_pct
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_report: {regressions} regression(s) vs {baseline_path} (tolerance {}%)",
            args.tolerance_pct
        );
        if args.informational {
            eprintln!("bench_report: informational mode, not failing");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
