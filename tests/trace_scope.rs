//! Tier-1 guarantees for causal transaction tracing (`dresar-scope`):
//!
//! 1. **Parallel-sweep trace determinism.** A traced run produces a
//!    byte-identical Chrome-trace document whether its job executes on the
//!    serial sweep path or sharded across a multi-threaded
//!    [`SweepRunner`] (`DRESAR_SWEEP_THREADS>1`). Each job constructs its
//!    simulator inside the worker, so this is structural — the test pins
//!    it against regressions that would share observer state across jobs.
//! 2. **Causal-tree completeness.** Every traced read miss reconstructs
//!    as one complete tree keyed by its transaction id: an async span
//!    (`ph:"b"`/`"e"`) on the issuing processor, a flow arrow
//!    (`ph:"s"`/`"t"`/`"f"`) stepping through the service point, and the
//!    protocol messages sent on the miss's behalf stamped with the same
//!    nonzero txn id. Every switch event, switch-originated sends
//!    included, sits on the switch's linear-index track.

use dresar::system::{RunOptions, System};
use dresar_bench::sweep::{Job, SweepRunner};
use dresar_interconnect::Bmin;
use dresar_obs::ObserverConfig;
use dresar_types::config::{SwitchDirConfig, SystemConfig};
use dresar_types::{JsonValue, Workload};
use dresar_workloads::scientific;
use std::collections::{BTreeMap, BTreeSet};

fn cfg(sd_entries: Option<u32>) -> SystemConfig {
    let mut cfg = SystemConfig::paper_table2();
    cfg.switch_dir =
        sd_entries.map(|entries| SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() });
    cfg
}

fn traced_run(workload: &Workload, sd_entries: Option<u32>) -> String {
    let observers = ObserverConfig { trace: true, ..ObserverConfig::default() };
    let report = System::new(cfg(sd_entries), workload)
        .run(RunOptions { observers, ..RunOptions::default() });
    report.obs.and_then(|o| o.trace).expect("traced run yields a trace").document()
}

#[test]
fn traced_runs_through_the_parallel_sweep_are_byte_identical_to_serial() {
    // Distinct workloads and SD configs, so jobs finish out of order on
    // the parallel runner whenever interleaving could matter.
    let mix: Vec<(Workload, Option<u32>)> = vec![
        (scientific::fft(16, 256), Some(1024)),
        (scientific::tc(16, 12), Some(256)),
        (scientific::sor(16, 12, 2), None),
        (scientific::fft(16, 128), Some(1024)),
    ];
    let docs = |runner: SweepRunner| -> Vec<String> {
        let jobs: Vec<Job<'_, String>> = mix
            .iter()
            .map(|(w, sd)| {
                let b: Job<'_, String> = Box::new(move || traced_run(w, *sd));
                b
            })
            .collect();
        runner.run_jobs(jobs)
    };
    let serial = docs(SweepRunner::serial());
    let parallel = docs(SweepRunner::with_threads(4));
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "trace {i} diverged between serial and parallel sweep");
    }
    // And the documents are real traces, not empty shells.
    for doc in &serial {
        assert!(doc.contains("read_miss"), "trace has no read spans: {doc:.>120}");
    }
}

#[test]
fn every_traced_read_miss_reconstructs_as_a_complete_causal_tree() {
    let doc = traced_run(&scientific::fft(16, 256), Some(1024));
    let parsed = JsonValue::parse(&doc).expect("trace parses as JSON");
    let events = parsed.as_arr().expect("array form");

    let ph = |e: &JsonValue| e.get("ph").and_then(JsonValue::as_str).unwrap_or("").to_string();
    let id_of = |e: &JsonValue| e.get("id").and_then(JsonValue::as_u64);
    let txn_of =
        |e: &JsonValue| e.get("args").and_then(|a| a.get("txn")).and_then(JsonValue::as_u64);

    // Collect spans: per id, count of begins and ends.
    let mut begins: BTreeMap<u64, u64> = BTreeMap::new();
    let mut ends: BTreeMap<u64, u64> = BTreeMap::new();
    let mut flows: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
    let mut msg_txns: BTreeSet<u64> = BTreeSet::new();
    let machine = cfg(Some(1024));
    let switches = Bmin::new(machine.nodes, machine.switch.radix as usize).total_switches() as u64;
    for e in events {
        let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
        if e.get("pid").and_then(JsonValue::as_u64) == Some(2) {
            let tid = e.get("tid").and_then(JsonValue::as_u64).expect("switch event has a tid");
            assert!(tid < switches, "{name}: switch track {tid} is not one of {switches} switches");
        }
        match (name, ph(e).as_str()) {
            ("read_miss", "b") => {
                let id = id_of(e).expect("span has id");
                assert_eq!(txn_of(e), Some(id), "span id must be the simulator's txn id");
                assert_ne!(id, 0, "real misses carry nonzero txn ids");
                *begins.entry(id).or_insert(0) += 1;
            }
            ("read_miss", "e") => *ends.entry(id_of(e).expect("span has id")).or_insert(0) += 1,
            ("txn", p @ ("s" | "t" | "f")) => {
                flows.entry(id_of(e).expect("flow has id")).or_default().insert(p.to_string());
            }
            _ => {
                if name.starts_with("send:") || name.starts_with("deliver:") {
                    if let Some(t) = txn_of(e) {
                        msg_txns.insert(t);
                    }
                }
            }
        }
    }

    assert!(!begins.is_empty(), "workload produced no traced read misses");
    for (id, n) in &begins {
        assert_eq!(*n, 1, "txn {id}: duplicate span begin");
        assert_eq!(ends.get(id), Some(&1), "txn {id}: span begun but never completed");
        let f = flows.get(id).unwrap_or_else(|| panic!("txn {id}: no flow arrows"));
        assert!(
            f.contains("s") && f.contains("f"),
            "txn {id}: flow must start on the processor and finish there, got {f:?}"
        );
        assert!(msg_txns.contains(id), "txn {id}: no protocol message carries the transaction id");
    }
    // Every end pairs with a begin (no orphan completions).
    for id in ends.keys() {
        assert!(begins.contains_key(id), "txn {id}: completion without issue");
    }
}
