//! `dresar_benchmark` — end-to-end and per-layer host performance of the
//! dresar simulators and serving tier. See README.md for the workloads,
//! metrics and calibration.
//!
//! ```text
//! dresar_benchmark [--workload W]... [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out PATH]
//! dresar_benchmark compare PARENT CHANGE [PARENT CHANGE]...
//! ```
//!
//! With one `--workload` the run happens in this process and the last
//! line of standard output is its result. Otherwise every workload (all of
//! them by default) runs in a child process of its own, one at a time, and
//! the last line is the combined result document that `--out` also
//! writes and `compare` reads.

mod compare;
mod probe;
mod serve;
mod sim;
mod spec;
mod stats;

use dresar_types::JsonValue;
use sim::SimKind;
use spec::{MetricSpec, Spec};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1009;
/// Seed kept out of development, for verifying a claimed gain.
const HELD_OUT_SEED: u64 = 7919;
/// Measured seconds per workload in `--smoke` mode.
const SMOKE_SECONDS: u64 = 1;

/// Benchmark workloads, in the order `BENCHMARK.json` declares them.
const WORKLOADS: [(&str, Option<SimKind>); 5] = [
    ("fft16", Some(SimKind::Fft16)),
    ("sor256", Some(SimKind::Sor256)),
    ("tpc-trace", Some(SimKind::TpcTrace)),
    ("fft-observed", Some(SimKind::FftObserved)),
    ("serve-mix", None),
];

/// Settings of one workload run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Add the traced repeat and report per-layer metrics.
    pub traced: bool,
}

/// What a workload measured: candidate metric values by name, operations
/// attempted and failed, and sample details for the result file.
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub detail: JsonValue,
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    smoke: bool,
    out: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: dresar_benchmark [--workload W]... [--seed S] [--seconds N] [--trace 0|1] \
         [--smoke] [--out PATH]\n       dresar_benchmark compare PARENT CHANGE [PARENT CHANGE]...\n\
         seeds: {DEFAULT_SEED} by default; {HELD_OUT_SEED} is held out for confirming a claimed gain"
    )
}

fn parse_args(spec: &Spec, argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec.workloads.contains(w) {
                    return Err(format!(
                        "unknown workload '{w}'; expected one of {}",
                        spec.workloads.join(", ")
                    ));
                }
                if args.workloads.contains(w) {
                    return Err(format!("workload '{w}' given twice"));
                }
                args.workloads.push(w.clone());
            }
            "--seed" => {
                let v = value()?;
                args.seed =
                    v.parse().map_err(|_| format!("--seed wants a whole number, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                let n: u64 =
                    v.parse().map_err(|_| format!("--seconds wants a whole number, got '{v}'"))?;
                if !(1..=60).contains(&n) {
                    return Err(format!("--seconds must be between 1 and 60, got {n}"));
                }
                args.seconds = Some(n);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got '{v}'")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Keeps exactly the declared metrics of the run's kind: every end-to-end
/// metric must have been measured; a per-layer metric a workload does not
/// exercise reads 0. A measured name that is declared nowhere is a defect.
fn select(
    spec: &Spec,
    traced: bool,
    mut measured: BTreeMap<String, f64>,
) -> Result<Vec<(MetricSpec, f64)>, String> {
    let declared = if traced { &spec.per_layer } else { &spec.end_to_end };
    let mut out = Vec::new();
    for m in declared {
        let v = match measured.remove(&m.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", m.name)),
        };
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", m.name));
        }
        out.push((m.clone(), v));
    }
    let other = if traced { &spec.end_to_end } else { &spec.per_layer };
    if let Some(name) = measured.keys().find(|n| !other.iter().any(|m| &m.name == *n)) {
        return Err(format!("metric {name} is measured but not declared in BENCHMARK.json"));
    }
    Ok(out)
}

/// Runs one workload in this process and prints its result; returns the
/// result and the sample details.
fn run_one(spec: &Spec, args: &Args, workload: &str) -> Result<(JsonValue, JsonValue), String> {
    let seconds = args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { spec.run_seconds });
    let ctx =
        Ctx { seed: args.seed, seconds: seconds as f64, smoke: args.smoke, traced: args.traced };
    let kind = WORKLOADS
        .iter()
        .find(|(n, _)| *n == workload)
        .map(|(_, k)| *k)
        .ok_or("unknown workload")?;
    let mut outcome = match kind {
        Some(k) => sim::measure(k, &ctx),
        None => serve::measure(&ctx),
    };
    outcome.metrics.insert("peak_rss_mb".into(), peak_rss_mb()?);
    let metrics = select(spec, args.traced, outcome.metrics)?;

    println!(
        "workload {workload} seed {} seconds {seconds} trace {}",
        args.seed,
        u8::from(args.traced)
    );
    for (m, v) in &metrics {
        println!("  {:<28} {:>18.6} {}", m.name, v, m.unit);
    }
    println!("  attempted {} failed {}", outcome.attempted, outcome.failed);
    println!("detail {}", outcome.detail.dump());
    let mut obj = JsonValue::obj();
    for (m, v) in metrics {
        obj = obj.field(
            &m.name,
            JsonValue::obj().field("value", v).field("unit", m.unit.as_str()).build(),
        );
    }
    let result = JsonValue::obj()
        .field("correct", outcome.failed == 0)
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", obj.build())
        .build();
    println!("{}", result.dump());
    Ok((result, outcome.detail))
}

/// Runs `workload` in a child process and returns its result line and its
/// sample details.
fn run_child(args: &Args, workload: &str) -> Result<(JsonValue, JsonValue), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out =
        cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!("workload {workload} exited with {}", out.status));
    }
    let parse = |line: Option<&str>| JsonValue::parse(line.unwrap_or("")).ok();
    let result =
        parse(stdout.lines().last()).ok_or(format!("workload {workload} printed no result"))?;
    let detail = parse(stdout.lines().find_map(|l| l.strip_prefix("detail ")));
    Ok((result, detail.unwrap_or_else(|| JsonValue::obj().build())))
}

fn main() -> ExitCode {
    let spec = spec::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&spec, &argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n{}", usage());
                ExitCode::from(2)
            }
        };
    }
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&spec, &argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if let [only] = args.workloads.as_slice() {
        run_one(&spec, &args, only)
            .and_then(|(result, detail)| write_out(&args, vec![(only.clone(), result, detail)]))
            .map(|_| ())
    } else {
        let names =
            if args.workloads.is_empty() { spec.workloads.clone() } else { args.workloads.clone() };
        names
            .iter()
            .map(|w| run_child(&args, w).map(|(r, d)| (w.clone(), r, d)))
            .collect::<Result<Vec<_>, _>>()
            .and_then(|results| write_out(&args, results))
            .map(|doc| println!("{}", doc.dump()))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the result document (`{seed, trace, smoke, workloads}`, each
/// result carrying its `detail`) and writes it to `--out` when given.
fn write_out(
    args: &Args,
    results: Vec<(String, JsonValue, JsonValue)>,
) -> Result<JsonValue, String> {
    let mut workloads = JsonValue::obj();
    for (name, result, detail) in results {
        let JsonValue::Obj(mut fields) = result else { unreachable!("results are objects") };
        fields.push(("detail".into(), detail));
        workloads = workloads.field(&name, JsonValue::Obj(fields));
    }
    let doc = JsonValue::obj()
        .field("seed", args.seed)
        .field("trace", args.traced)
        .field("smoke", args.smoke)
        .field("workloads", workloads.build())
        .build();
    if let Some(path) = &args.out {
        std::fs::write(path, doc.dump() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn workloads_match_the_declaration() {
        let spec = spec::load();
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(spec.workloads, names);
    }

    #[test]
    fn cli_accepts_a_single_workload_run() {
        let spec = spec::load();
        let a =
            parse_args(&spec, &argv("--workload fft16 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.traced),
            (vec!["fft16".into()], 7, Some(10), true)
        );
    }

    #[test]
    fn cli_rejects_bad_input() {
        let spec = spec::load();
        for bad in [
            "--bogus",
            "--workload nope",
            "--seed -1",
            "--seed 1x",
            "--seed",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--workload fft16 --workload fft16",
            "fft16",
        ] {
            assert!(parse_args(&spec, &argv(bad)).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn select_keeps_exactly_the_declared_metrics() {
        let spec = spec::load();
        let mut measured: BTreeMap<String, f64> =
            spec.end_to_end.iter().map(|m| (m.name.clone(), 1.0)).collect();
        assert_eq!(select(&spec, false, measured.clone()).unwrap().len(), spec.end_to_end.len());
        // Per-layer metrics a workload does not exercise read 0.
        let layer = select(&spec, true, BTreeMap::new()).unwrap();
        assert!(layer.iter().all(|(_, v)| *v == 0.0));
        measured.insert("made.up".into(), 1.0);
        assert!(select(&spec, false, measured.clone()).is_err());
        measured.remove("made.up");
        measured.remove("setup_s");
        assert!(select(&spec, false, measured).is_err(), "a missing end-to-end metric is an error");
    }
}
