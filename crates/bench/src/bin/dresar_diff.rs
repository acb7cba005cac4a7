//! `dresar_diff` — the run-diff explainer.
//!
//! Structurally compares two runs and attributes their end-to-end cycle
//! delta: which read-latency phases moved (exact accounting — the phase
//! sums telescope to `reads.latency_cycles`, so the reported residual is
//! zero whenever both runs carry breakdowns), which metrics shifted the
//! most, and how the topology contention heatmap changed (critical
//! resource, biggest per-resource busy shifts).
//!
//! Usage:
//!
//! ```text
//! dresar_diff BASE.json OTHER.json [--json]   # two documents, runs matched by name
//! dresar_diff DOC.json RUN_A RUN_B [--json]   # one document, two named runs
//! ```
//!
//! Accepted documents: `--heatmap` sweeps (`bench_report --heatmap` /
//! `tool: "heatmap"`), plain `bench_report` registries, and single
//! `ExecutionReport` dumps. Phase and heatmap attribution degrade
//! gracefully when a document carries only metrics (the CI regression gate
//! invokes this on plain `BENCH_dresar.json` documents after a failure).

use dresar_bench::cli::{CliError, ErrorCode};
use dresar_bench::json_doc;
use dresar_obs::PHASES;
use dresar_types::{JsonValue, ToJson};
use std::process::ExitCode;

/// Everything `dresar_diff` can read out of one run, regardless of which
/// document shape it came from.
struct RunView {
    name: String,
    exec_cycles: Option<f64>,
    latency_cycles: Option<f64>,
    /// Per-phase cycle sums across classes, indexed like [`PHASES`].
    phases: Option<[f64; 5]>,
    /// Flattened numeric leaves of the run's metrics, dotted paths.
    scalars: Vec<(String, f64)>,
    /// Heatmap critical resource: `(label, utilization)`.
    critical: Option<(String, f64)>,
    /// Heatmap per-resource busy cycles (links and homes), by label.
    resource_busy: Vec<(String, f64)>,
}

/// Flattens the numeric leaves of an object tree into dotted paths.
/// Arrays are skipped (histograms and per-class vectors are attributed
/// through their own channels, not as ranked scalars).
fn flatten(prefix: &str, v: &JsonValue, out: &mut Vec<(String, f64)>) {
    match v {
        JsonValue::Num(n) => out.push((prefix.to_string(), *n)),
        JsonValue::Obj(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten(&path, v, out);
            }
        }
        _ => {}
    }
}

fn phase_sums(breakdown: &JsonValue) -> Option<[f64; 5]> {
    let JsonValue::Obj(classes) = breakdown.get("classes")? else {
        return None;
    };
    let mut out = [0.0f64; 5];
    for (_, c) in classes {
        let ph = c.get("phases")?;
        for (i, p) in PHASES.iter().enumerate() {
            out[i] += ph.get(p)?.as_f64()?;
        }
    }
    Some(out)
}

fn find(scalars: &[(String, f64)], key: &str) -> Option<f64> {
    scalars.iter().find(|(n, _)| n == key).map(|(_, v)| *v)
}

/// Builds a [`RunView`] from one run entry (a `runs[]` element of a
/// heatmap or `bench_report` document, or a whole `ExecutionReport`).
fn run_view(name: String, r: &JsonValue) -> RunView {
    let mut scalars = Vec::new();
    match r.get("metrics") {
        Some(m) => flatten("", m, &mut scalars),
        // ExecutionReport without a registry: flatten its stat objects,
        // skipping observer payloads (deep, already attributed elsewhere).
        None => {
            if let JsonValue::Obj(fields) = r {
                for (k, v) in fields {
                    if k != "obs" {
                        flatten(k, v, &mut scalars);
                    }
                }
            }
        }
    }
    let obs = r.get("obs");
    let breakdown = r.get("breakdown").or_else(|| obs.and_then(|o| o.get("breakdown")));
    let heatmap = r.get("heatmap").or_else(|| obs.and_then(|o| o.get("heatmap")));
    let critical = heatmap.and_then(|h| h.get("critical")).and_then(|c| {
        Some((c.get("resource")?.as_str()?.to_string(), c.get("utilization")?.as_f64()?))
    });
    let mut resource_busy = Vec::new();
    if let Some(h) = heatmap {
        if let Some(JsonValue::Arr(links)) = h.get("links") {
            for l in links {
                if let (Some(label), Some(busy)) = (
                    l.get("label").and_then(JsonValue::as_str),
                    l.get("load").and_then(|ld| ld.get("busy_cycles")).and_then(JsonValue::as_f64),
                ) {
                    resource_busy.push((label.to_string(), busy));
                }
            }
        }
        if let Some(JsonValue::Arr(homes)) = h.get("homes") {
            for hm in homes {
                if let (Some(home), Some(busy)) = (
                    hm.get("home").and_then(JsonValue::as_u64),
                    hm.get("load").and_then(|ld| ld.get("busy_cycles")).and_then(JsonValue::as_f64),
                ) {
                    resource_busy.push((format!("home:{home}"), busy));
                }
            }
        }
    }
    RunView {
        exec_cycles: find(&scalars, "exec_cycles")
            .or_else(|| find(&scalars, "sim.cycles"))
            .or_else(|| find(&scalars, "cycles"))
            .or_else(|| find(&scalars, "trace.exec_cycles")),
        latency_cycles: find(&scalars, "reads.latency_cycles"),
        phases: breakdown.and_then(phase_sums),
        scalars,
        critical,
        resource_busy,
        name,
    }
}

/// Parses a document into its run views: the `runs[]` array of a heatmap
/// or `bench_report` document, or a single `ExecutionReport` (named by the
/// file it came from).
fn parse_doc(path: &str, doc: &JsonValue) -> Result<Vec<RunView>, String> {
    if let Some(JsonValue::Arr(runs)) = doc.get("runs") {
        return runs
            .iter()
            .map(|r| {
                let name = r
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("{path}: run entry missing `name`"))?
                    .to_string();
                Ok(run_view(name, r))
            })
            .collect();
    }
    if doc.get("reads").is_some() {
        return Ok(vec![run_view(path.to_string(), doc)]);
    }
    Err(format!("{path}: neither a `runs` document nor an execution report"))
}

/// A run's critical resource, when its document carried a heatmap.
type Critical = Option<(String, f64)>;

/// The attribution of one run pair's delta.
struct PairDiff {
    base: String,
    other: String,
    exec: Option<(f64, f64)>,
    latency: Option<(f64, f64)>,
    /// Per-phase cycle deltas (other − base), indexed like [`PHASES`].
    phase_deltas: Option<[f64; 5]>,
    /// Latency delta not covered by the phase deltas (0 by construction
    /// when both runs carry complete breakdowns).
    residual: Option<f64>,
    /// `(name, base, other)` ranked by relative change, biggest first.
    metric_deltas: Vec<(String, f64, f64)>,
    critical: (Critical, Critical),
    /// `(label, base busy, other busy)` ranked by absolute shift.
    resource_shifts: Vec<(String, f64, f64)>,
}

fn rel_change(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a) / a.abs()
    }
}

fn diff_pair(a: &RunView, b: &RunView) -> PairDiff {
    let latency = a.latency_cycles.zip(b.latency_cycles);
    let phase_deltas =
        a.phases.zip(b.phases).map(|(pa, pb)| std::array::from_fn(|i| pb[i] - pa[i]));
    let residual =
        latency.zip(phase_deltas).map(|((la, lb), pd)| (lb - la) - pd.iter().sum::<f64>());
    let mut metric_deltas: Vec<(String, f64, f64)> = a
        .scalars
        .iter()
        .filter_map(|(name, va)| {
            let vb = find(&b.scalars, name)?;
            (vb != *va).then(|| (name.clone(), *va, vb))
        })
        .collect();
    metric_deltas.sort_by(|x, y| {
        rel_change(y.1, y.2)
            .abs()
            .total_cmp(&rel_change(x.1, x.2).abs())
            .then_with(|| x.0.cmp(&y.0))
    });
    let mut labels: Vec<&String> = a.resource_busy.iter().map(|(l, _)| l).collect();
    for (l, _) in &b.resource_busy {
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    let mut resource_shifts: Vec<(String, f64, f64)> = labels
        .into_iter()
        .map(|l| {
            let va = find(&a.resource_busy, l).unwrap_or(0.0);
            let vb = find(&b.resource_busy, l).unwrap_or(0.0);
            (l.clone(), va, vb)
        })
        .filter(|(_, va, vb)| va != vb)
        .collect();
    resource_shifts.sort_by(|x, y| {
        (y.2 - y.1).abs().total_cmp(&(x.2 - x.1).abs()).then_with(|| x.0.cmp(&y.0))
    });
    PairDiff {
        base: a.name.clone(),
        other: b.name.clone(),
        exec: a.exec_cycles.zip(b.exec_cycles),
        latency,
        phase_deltas,
        residual,
        metric_deltas,
        critical: (a.critical.clone(), b.critical.clone()),
        resource_shifts,
    }
}

/// Top-N ranked entries each section prints / serializes.
const TOP_N: usize = 8;

fn pct(a: f64, b: f64) -> String {
    let r = rel_change(a, b);
    if r.is_infinite() {
        "new".into()
    } else {
        format!("{:+.2}%", 100.0 * r)
    }
}

fn print_pair(d: &PairDiff) {
    println!("dresar_diff: {} -> {}", d.base, d.other);
    if let Some((a, b)) = d.exec {
        println!("  execution:    {a:.0} -> {b:.0} cycles ({})", pct(a, b));
    }
    if let Some((a, b)) = d.latency {
        println!("  read latency: {a:.0} -> {b:.0} cycles (delta {:+.0})", b - a);
    }
    match (d.phase_deltas, d.latency) {
        (Some(pd), Some((la, lb))) => {
            let delta = lb - la;
            println!("  phase attribution (delta cycles, share of the latency delta):");
            let mut ranked: Vec<(usize, f64)> = pd.iter().copied().enumerate().collect();
            ranked.sort_by(|x, y| y.1.abs().total_cmp(&x.1.abs()));
            for (i, v) in ranked {
                let share =
                    if delta != 0.0 { format!("{:6.1}%", 100.0 * v / delta) } else { "-".into() };
                println!("    {:16} {v:>12.0}  {share}", PHASES[i]);
            }
            let residual = d.residual.unwrap_or(0.0);
            let res_pct = if delta != 0.0 { 100.0 * residual / delta } else { 0.0 };
            println!("  residual: {residual:.0} cycles ({res_pct:.3}% of the latency delta)");
        }
        _ => println!("  (no phase breakdowns in both runs; metric deltas only)"),
    }
    match &d.critical {
        (Some((ra, ua)), Some((rb, ub))) => println!(
            "  critical resource: {ra} ({:.1}% util) -> {rb} ({:.1}% util)",
            100.0 * ua,
            100.0 * ub
        ),
        (None, None) => {}
        _ => println!("  critical resource: present in only one run"),
    }
    if !d.resource_shifts.is_empty() {
        println!("  top resource shifts (busy cycles):");
        for (l, a, b) in d.resource_shifts.iter().take(TOP_N) {
            println!("    {l:24} {a:>10.0} -> {b:>10.0}  ({:+.0})", b - a);
        }
    }
    if !d.metric_deltas.is_empty() {
        println!("  top metric deltas:");
        for (n, a, b) in d.metric_deltas.iter().take(TOP_N) {
            println!("    {n:32} {a} -> {b}  ({})", pct(*a, *b));
        }
    }
}

fn pair_json(d: &PairDiff) -> JsonValue {
    let mut b = JsonValue::obj().field("base", d.base.as_str()).field("other", d.other.as_str());
    if let Some((ea, eb)) = d.exec {
        b = b.field(
            "exec_cycles",
            JsonValue::obj().field("base", ea).field("other", eb).field("delta", eb - ea).build(),
        );
    }
    if let Some((la, lb)) = d.latency {
        b = b.field(
            "latency_cycles",
            JsonValue::obj().field("base", la).field("other", lb).field("delta", lb - la).build(),
        );
    }
    if let Some(pd) = d.phase_deltas {
        b = b.field(
            "phase_deltas",
            JsonValue::Obj(
                PHASES.iter().zip(pd).map(|(n, v)| (n.to_string(), v.to_json())).collect(),
            ),
        );
    }
    if let Some(r) = d.residual {
        b = b.field("residual_cycles", r);
    }
    if let (Some((ra, ua)), Some((rb, ub))) = &d.critical {
        b = b.field(
            "critical",
            JsonValue::obj()
                .field(
                    "base",
                    JsonValue::obj()
                        .field("resource", ra.as_str())
                        .field("utilization", *ua)
                        .build(),
                )
                .field(
                    "other",
                    JsonValue::obj()
                        .field("resource", rb.as_str())
                        .field("utilization", *ub)
                        .build(),
                )
                .build(),
        );
    }
    let shifts: Vec<JsonValue> = d
        .resource_shifts
        .iter()
        .take(TOP_N)
        .map(|(l, a, v)| {
            JsonValue::obj()
                .field("resource", l.as_str())
                .field("base", *a)
                .field("other", *v)
                .build()
        })
        .collect();
    let metrics: Vec<JsonValue> = d
        .metric_deltas
        .iter()
        .take(TOP_N)
        .map(|(n, a, v)| {
            JsonValue::obj().field("name", n.as_str()).field("base", *a).field("other", *v).build()
        })
        .collect();
    b.field("resource_shifts", shifts).field("metric_deltas", metrics).build()
}

fn load_doc(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

const USAGE: &str = "usage: dresar_diff BASE.json OTHER.json [--json]\n       \
                     dresar_diff DOC.json RUN_A RUN_B [--json]";

/// Parses the command line into `(positional arguments, --json)`. `--help`
/// prints the usage and exits.
fn parse_args() -> Result<(Vec<String>, bool), CliError> {
    let mut positional = Vec::new();
    let mut json = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            _ if a.starts_with('-') => {
                return Err(CliError::new(
                    ErrorCode::UnknownField,
                    format!("unknown flag '{a}' for dresar_diff (accepts --json)"),
                ))
            }
            _ if positional.len() == 3 => {
                return Err(CliError::new(
                    ErrorCode::UnknownField,
                    format!("unexpected argument '{a}' after three operands"),
                ))
            }
            _ => positional.push(a),
        }
    }
    if positional.len() < 2 {
        return Err(CliError::new(
            ErrorCode::BadField,
            "needs BASE.json OTHER.json or DOC.json RUN_A RUN_B",
        ));
    }
    Ok((positional, json))
}

fn run(positional: &[String]) -> Result<Vec<PairDiff>, String> {
    match positional.len() {
        // Two documents: match runs by name.
        2 => {
            let a = parse_doc(&positional[0], &load_doc(&positional[0])?)?;
            let b = parse_doc(&positional[1], &load_doc(&positional[1])?)?;
            let mut pairs = Vec::new();
            // Single-report documents diff against each other regardless
            // of their names (the names are the file paths).
            if a.len() == 1 && b.len() == 1 {
                pairs.push(diff_pair(&a[0], &b[0]));
                return Ok(pairs);
            }
            for ra in &a {
                if let Some(rb) = b.iter().find(|r| r.name == ra.name) {
                    pairs.push(diff_pair(ra, rb));
                }
            }
            if pairs.is_empty() {
                return Err("no run names in common between the two documents".into());
            }
            Ok(pairs)
        }
        // One document, two named runs.
        3 => {
            let runs = parse_doc(&positional[0], &load_doc(&positional[0])?)?;
            let get = |name: &str| {
                runs.iter().find(|r| r.name == name).ok_or_else(|| {
                    let known: Vec<&str> = runs.iter().map(|r| r.name.as_str()).collect();
                    format!(
                        "run '{name}' not in {}; known runs: {}",
                        positional[0],
                        known.join(", ")
                    )
                })
            };
            Ok(vec![diff_pair(get(&positional[1])?, get(&positional[2])?)])
        }
        _ => unreachable!("parse_args accepts two or three arguments"),
    }
}

fn main() -> ExitCode {
    let (positional, json) = parse_args().unwrap_or_else(|e| e.exit());
    let pairs = match run(&positional) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dresar_diff: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        let doc = json_doc("dresar_diff")
            .field("pairs", pairs.iter().map(pair_json).collect::<Vec<_>>())
            .build();
        println!("{}", doc.dump());
    } else {
        for d in &pairs {
            print_pair(d);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_bench::suite;
    use dresar_bench::sweep::{heatmap_runs, SweepRunner};
    use dresar_workloads::Scale;

    /// End-to-end acceptance: diffing base vs sd1024 through the real
    /// heatmap-sweep document attributes the full latency delta with zero
    /// residual (the phase sums telescope to `reads.latency_cycles`).
    #[test]
    fn base_vs_sd1024_accounts_for_the_full_latency_delta() {
        let benches = suite(Scale::Tiny);
        let fft: Vec<_> = benches.into_iter().filter(|b| b.label == "FFT").collect();
        let runs = heatmap_runs(&fft, SweepRunner::serial());
        let doc = JsonValue::obj()
            .field("runs", runs.iter().map(ToJson::to_json).collect::<Vec<_>>())
            .build();
        let views = parse_doc("doc", &doc).expect("parsed");
        let a = views.iter().find(|r| r.name == "FFT.base").expect("base run");
        let b = views.iter().find(|r| r.name == "FFT.sd1024").expect("sd1024 run");
        let d = diff_pair(a, b);
        let (la, lb) = d.latency.expect("latency in both runs");
        let delta = lb - la;
        assert!(delta != 0.0, "sd1024 should move read latency at tiny scale");
        let residual = d.residual.expect("residual computed");
        assert!(
            residual.abs() < 0.01 * delta.abs(),
            "residual {residual} vs latency delta {delta}"
        );
        let pd = d.phase_deltas.expect("phase deltas");
        assert_eq!(pd.iter().sum::<f64>(), delta, "phases telescope exactly");
        assert!(d.critical.0.is_some() && d.critical.1.is_some(), "critical resources");
        assert!(!d.resource_shifts.is_empty(), "per-resource shifts");
        // The JSON form carries the same accounting.
        let j = pair_json(&d);
        assert_eq!(
            j.get("latency_cycles").and_then(|l| l.get("delta")).and_then(JsonValue::as_f64),
            Some(delta)
        );
    }

    #[test]
    fn registry_documents_degrade_to_metric_deltas() {
        let doc = |lat: f64| {
            JsonValue::obj()
                .field(
                    "runs",
                    vec![JsonValue::obj()
                        .field("name", "FFT.base")
                        .field(
                            "metrics",
                            JsonValue::obj()
                                .field("sim.cycles", 1000.0 * lat)
                                .field("reads.latency_cycles", lat)
                                .field("reads.retries", 3.0)
                                .build(),
                        )
                        .build()],
                )
                .build()
        };
        let a = parse_doc("a", &doc(100.0)).unwrap();
        let b = parse_doc("b", &doc(80.0)).unwrap();
        let d = diff_pair(&a[0], &b[0]);
        assert_eq!(d.latency, Some((100.0, 80.0)));
        assert_eq!(d.exec, Some((100_000.0, 80_000.0)));
        assert!(d.phase_deltas.is_none(), "no breakdowns in registry docs");
        assert!(d.residual.is_none());
        // reads.retries is unchanged, so only the two moved scalars rank.
        assert_eq!(d.metric_deltas.len(), 2);
    }

    #[test]
    fn phase_deltas_sum_to_the_latency_delta_on_synthetic_breakdowns() {
        let run = |name: &str, phases: [u64; 5]| {
            let lat: u64 = phases.iter().sum();
            let ph = JsonValue::Obj(
                PHASES.iter().zip(phases).map(|(n, v)| (n.to_string(), v.to_json())).collect(),
            );
            JsonValue::obj()
                .field("name", name)
                .field(
                    "metrics",
                    JsonValue::obj()
                        .field("reads", JsonValue::obj().field("latency_cycles", lat).build())
                        .field("exec_cycles", 10 * lat)
                        .build(),
                )
                .field(
                    "breakdown",
                    JsonValue::obj()
                        .field(
                            "classes",
                            JsonValue::obj()
                                .field("clean_memory", JsonValue::obj().field("phases", ph).build())
                                .build(),
                        )
                        .build(),
                )
                .build()
        };
        let mk = |phases| JsonValue::obj().field("runs", vec![run("w.base", phases)]).build();
        let a = parse_doc("a", &mk([10, 0, 30, 40, 20])).unwrap();
        let b = parse_doc("b", &mk([10, 5, 25, 10, 20])).unwrap();
        let d = diff_pair(&a[0], &b[0]);
        assert_eq!(d.residual, Some(0.0));
        assert_eq!(d.phase_deltas, Some([0.0, 5.0, -5.0, -30.0, 0.0]));
        let (la, lb) = d.latency.unwrap();
        assert_eq!(lb - la, -30.0);
    }
}
