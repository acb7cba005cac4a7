//! Tier-1 observability guarantees: the latency breakdown accounts for
//! every read-stall cycle exactly, traces are deterministic and valid
//! Chrome trace-event documents, the JSON reports name every read class,
//! and a fully observed run's report and trace bytes are pinned.

use dresar::system::{ExecutionReport, RunOptions, System};
use dresar_obs::{ObserverConfig, CLASS_LABELS, DEFAULT_ATTRIB_WINDOW};
use dresar_types::config::{SwitchDirConfig, SystemConfig};
use dresar_types::{JsonValue, ToJson, Workload};
use dresar_workloads::scientific;

fn cfg(switch_dir: bool) -> SystemConfig {
    let mut cfg = SystemConfig::paper_table2();
    cfg.switch_dir = switch_dir.then(SwitchDirConfig::paper_default);
    cfg
}

fn workload() -> Workload {
    scientific::fft(16, 256)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME));
    format!("{h:016x}")
}

fn run_observed(switch_dir: bool, observers: ObserverConfig) -> ExecutionReport {
    System::new(cfg(switch_dir), &workload()).run(RunOptions { observers, ..RunOptions::default() })
}

#[test]
fn breakdown_phase_sums_equal_read_latency_cycles() {
    for switch_dir in [false, true] {
        let observers = ObserverConfig { latency_breakdown: true, ..Default::default() };
        let r = run_observed(switch_dir, observers);
        let bd = r.obs.as_ref().and_then(|o| o.breakdown.as_ref()).expect("breakdown recorded");

        // Every class's phase cycles sum to that class's total latency...
        for c in &bd.classes {
            assert_eq!(c.phases.iter().sum::<u64>(), c.total_latency);
            assert_eq!(c.hist.iter().sum::<u64>(), c.count);
        }
        // ...and the grand total accounts for ReadStats exactly: no stall
        // cycle is unattributed and none is double-counted.
        assert_eq!(bd.total_phase_cycles(), r.reads.latency_cycles, "sd={switch_dir}");
        assert_eq!(bd.total_reads(), r.reads.total(), "sd={switch_dir}");
        assert_eq!(bd.unfinished, 0, "all reads complete at barrier exit");
        // Per-node counts partition the total.
        assert_eq!(bd.per_node.iter().map(|n| n.count).sum::<u64>(), r.reads.total());
        assert_eq!(
            bd.per_node.iter().map(|n| n.total_latency).sum::<u64>(),
            r.reads.latency_cycles
        );
    }
}

#[test]
fn identical_runs_produce_byte_identical_traces() {
    let observers = ObserverConfig { trace: true, ..Default::default() };
    let t1 = run_observed(true, observers).obs.and_then(|o| o.trace).expect("trace recorded");
    let t2 = run_observed(true, observers).obs.and_then(|o| o.trace).expect("trace recorded");
    let (t1, t2) = (t1.document(), t2.document());
    assert!(!t1.is_empty());
    assert_eq!(t1, t2, "tracing must be deterministic");
}

#[test]
fn traces_are_deterministic_on_8x8_pending_buffer_config() {
    // The paper's 8x8 (radix-4) switches use a pending buffer for TRANSIENT
    // entries; shrink it so the limit actually engages and verify tracing
    // stays byte-identical under the resulting retries.
    let mut c = SystemConfig::paper_table2();
    assert_eq!(c.switch.radix, 4, "paper config uses 8x8 switches");
    c.switch_dir =
        Some(SwitchDirConfig { pending_buffer_entries: 2, ..SwitchDirConfig::paper_default() });
    let observers = ObserverConfig { trace: true, ..Default::default() };
    let run = || System::new(c, &workload()).run(RunOptions { observers, ..RunOptions::default() });
    let (r1, r2) = (run(), run());
    let t1 = r1.obs.as_ref().and_then(|o| o.trace.as_ref()).expect("trace recorded").document();
    let t2 = r2.obs.as_ref().and_then(|o| o.trace.as_ref()).expect("trace recorded").document();
    assert!(!t1.is_empty());
    assert_eq!(t1, t2, "tracing must be deterministic with a constrained pending buffer");
    assert_eq!(r1.metrics, r2.metrics);
}

#[test]
fn metrics_snapshots_are_identical_across_same_seed_runs() {
    let run = || System::new(cfg(true), &workload()).run(RunOptions::default());
    let (r1, r2) = (run(), run());
    assert!(!r1.metrics.is_empty(), "simulator always assembles a metrics snapshot");
    assert_eq!(r1.metrics, r2.metrics);
    assert_eq!(
        r1.metrics.to_json().dump(),
        r2.metrics.to_json().dump(),
        "metrics snapshots must serialize byte-identically"
    );
    assert!(r1.metrics.diff(&r2.metrics).is_empty());
}

#[test]
fn trace_is_a_valid_chrome_trace_event_document() {
    let observers = ObserverConfig { trace: true, ..Default::default() };
    let trace = run_observed(true, observers).obs.and_then(|o| o.trace).expect("trace recorded");
    let doc = JsonValue::parse(&trace.document()).expect("trace parses as JSON");
    let events = doc.as_arr().expect("trace-event array flavour");
    assert!(events.len() > 10, "trace has events");
    let mut phases_seen = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("every event has ph");
        phases_seen.insert(ph.to_string());
        assert!(ev.get("name").is_some(), "every event has a name");
        assert!(ev.get("pid").and_then(|v| v.as_u64()).is_some(), "every event has pid");
        if ph != "M" {
            assert!(ev.get("ts").and_then(|v| v.as_u64()).is_some(), "timed events have ts");
        }
    }
    // Metadata, async read spans, instants and home-service slices all show up.
    for required in ["M", "b", "e", "i", "X"] {
        assert!(phases_seen.contains(required), "missing ph={required}: {phases_seen:?}");
    }
}

#[test]
fn obs_report_json_names_every_read_class() {
    let observers = ObserverConfig::all(1000);
    let r = run_observed(true, observers);
    let obs = r.obs.as_ref().expect("observers attached");
    assert!(obs.breakdown.is_some() && obs.timeseries.is_some() && obs.trace.is_some());
    let json = r.to_json().dump();
    let parsed = JsonValue::parse(&json).expect("parses");
    let classes = parsed
        .get("obs")
        .and_then(|o| o.get("breakdown"))
        .and_then(|b| b.get("classes"))
        .expect("breakdown classes serialized");
    for label in CLASS_LABELS {
        assert!(classes.get(label).is_some(), "class {label} present");
    }
}

/// The bytes a fully observed run reaches, pinned: the whole report as
/// `to_json().dump()` writes it (the trace nested as an escaped string)
/// and the raw trace document. A change to how the event log, the report
/// or the JSON writer produce bytes must leave both digests where they are.
#[test]
fn observed_report_and_trace_bytes_are_pinned() {
    let r = run_observed(true, ObserverConfig::all(DEFAULT_ATTRIB_WINDOW));
    let trace = r.obs.as_ref().and_then(|o| o.trace.as_ref()).expect("trace recorded");
    assert_eq!(fnv1a(trace.document().as_bytes()), "4308b3e24b8c7d4c", "trace document");
    assert_eq!(fnv1a(r.to_json().dump().as_bytes()), "83f584f8a703f8d8", "report");
}

/// The report writes the trace straight into its bytes as an escaped
/// string; that must be exactly the raw document escaped by the JSON
/// writer, and parse back to it.
fn assert_forms_agree(r: &ExecutionReport) -> String {
    let obs = r.obs.as_ref().expect("observers attached");
    let raw = obs.trace.as_ref().expect("trace recorded").document();
    let json = obs.to_json();
    let escaped = json.get("trace_events").expect("trace_events field").dump();
    assert_eq!(escaped, JsonValue::Str(raw.clone()).dump(), "escaped form");
    assert_eq!(JsonValue::parse(&escaped), Ok(JsonValue::Str(raw.clone())));
    JsonValue::parse(&raw).expect("the raw form parses");
    raw
}

#[test]
fn the_report_escapes_exactly_the_trace_document() {
    assert_forms_agree(&run_observed(true, ObserverConfig::all(DEFAULT_ATTRIB_WINDOW)));
    // A two-entry pending buffer makes switch directories NAK, so this run
    // reaches every record kind: NAKs, read retries, busy home transitions
    // and every read class.
    let mut c = cfg(true);
    c.switch_dir =
        Some(SwitchDirConfig { pending_buffer_entries: 2, ..SwitchDirConfig::paper_default() });
    let observers = ObserverConfig { trace: true, ..Default::default() };
    let r = System::new(c, &workload()).run(RunOptions { observers, ..RunOptions::default() });
    let raw = assert_forms_agree(&r);
    let busy_star = "*\",";
    for needle in ["\"name\":\"nak\"", "\"name\":\"read_retry\"", busy_star] {
        assert!(raw.contains(needle), "the run reaches {needle}");
    }
    for label in CLASS_LABELS {
        assert!(raw.contains(&format!("\"class\":\"{label}\"")), "the run reaches {label}");
    }
}
