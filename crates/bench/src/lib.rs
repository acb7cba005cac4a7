//! # dresar-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! tables and figures.
//!
//! Binaries:
//!
//! * `dresar` — the paper's evaluation as subcommands sharing one strict
//!   parser ([`cli`]): `fig <1|2|8|9|10|11>` (Figures 1, 2 and 8–11),
//!   `figures` (all of them as one EXPERIMENTS.md-style report), `params`
//!   (Tables 2 and 3), `cycle-budget` (the §4.2/§4.3 port-scheduling
//!   arithmetic behind Figures 5–7), `ablations` (design-choice
//!   comparisons), `probe` (raw figure inputs, latency breakdowns,
//!   heatmaps, fault runs) and `scope-overhead` (the flight recorder's cost
//!   guard). Each takes an optional scale `tiny|reduced|paper` (default
//!   `reduced`); `fig`, `ablations` and `probe` also take `--json` to emit
//!   one machine-readable document on stdout (see the README's
//!   "Observability" section);
//! * `bench_report` — the deterministic BENCH telemetry, regression gate and
//!   the scaling/protocol figures;
//! * `dresar_diff` — explains the cycle delta between two recorded runs.
//!
//! Timing benches (plain `std::time` harnesses, run with `cargo bench`):
//! `switchdir_micro` (snoop/insert throughput) and `crossbar` (flit-level
//! arbitration).

pub mod cli;
pub mod harness;
pub mod sweep;

use dresar::system::{RunOptions, System};
use dresar_faults::FaultPlan;
use dresar_obs::{ObsReport, ObserverConfig};
use dresar_stats::ReadStats;
use dresar_trace_sim::TraceSimulator;
use dresar_types::config::{SwitchDirConfig, SystemConfig, TraceSimConfig};
use dresar_types::{JsonValue, ToJson, Workload};
use dresar_workloads::Scale;
use sweep::SweepRunner;

/// Figure-relevant metrics extracted from either simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Metrics {
    /// Read statistics.
    pub reads: ReadStats,
    /// Execution time in cycles.
    pub exec_cycles: u64,
    /// Switch-directory read hits (0 for base).
    pub sd_hits: u64,
}

impl Metrics {
    /// Home-node cache-to-cache transfers (Figure 8 metric).
    pub fn home_ctoc(&self) -> f64 {
        self.reads.ctoc_home as f64
    }

    /// Average read-miss latency (Figure 9 metric).
    pub fn avg_read_latency(&self) -> f64 {
        self.reads.avg_latency()
    }

    /// Read stall cycles (Figure 10 metric).
    pub fn read_stall(&self) -> f64 {
        self.reads.stall_cycles as f64
    }

    /// Execution time (Figure 11 metric).
    pub fn exec(&self) -> f64 {
        self.exec_cycles as f64
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("reads", self.reads.to_json())
            .field("exec_cycles", self.exec_cycles)
            .field("sd_hits", self.sd_hits)
            .field("avg_read_latency", self.avg_read_latency())
            .build()
    }
}

/// A workload paired with the simulator that evaluates it (the paper runs
/// scientific applications execution-driven and commercial traces
/// trace-driven).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Execution-driven 16-node system (Table 2).
    Execution,
    /// Trace-driven constant-latency model (Table 3).
    Trace,
}

/// One evaluated workload.
pub struct Bench {
    /// Display name matching the paper's figures.
    pub label: &'static str,
    /// The reference streams.
    pub workload: Workload,
    /// Which simulator drives it.
    pub driver: Driver,
}

/// The paper's seven-workload evaluation suite at a given scale.
pub fn suite(scale: Scale) -> Vec<Bench> {
    let p = 16;
    let sci = dresar_workloads::scientific_suite(p, scale);
    let mut out: Vec<Bench> = sci
        .into_iter()
        .zip(["FFT", "TC", "SOR", "FWA", "GAUSS"])
        .map(|(workload, label)| Bench { label, workload, driver: Driver::Execution })
        .collect();
    for (workload, label) in dresar_workloads::commercial_suite(p, scale, 0xD2E5_A25E)
        .into_iter()
        .zip(["TPC-C", "TPC-D"])
    {
        out.push(Bench { label, workload, driver: Driver::Trace });
    }
    out
}

/// The paper's switch-directory geometry at `entries` entries per switch,
/// or `None` (the base machine) when no size is given.
pub fn switch_dir(entries: Option<u32>) -> Option<SwitchDirConfig> {
    entries.map(|entries| SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() })
}

/// Runs one workload with an optional switch-directory size.
pub fn run_one(bench: &Bench, sd_entries: Option<u32>) -> Metrics {
    run_one_observed(bench, sd_entries, ObserverConfig::default()).0
}

/// [`run_one`] with observers attached. Only the execution-driven simulator
/// is instrumented; trace-driven workloads return `None` for the payload.
pub fn run_one_observed(
    bench: &Bench,
    sd_entries: Option<u32>,
    observers: ObserverConfig,
) -> (Metrics, Option<ObsReport>) {
    match bench.driver {
        Driver::Execution => {
            let mut cfg = SystemConfig::paper_table2();
            cfg.switch_dir = switch_dir(sd_entries);
            let report = System::new(cfg, &bench.workload)
                .run(RunOptions { observers, ..RunOptions::default() });
            (
                Metrics {
                    reads: report.reads,
                    exec_cycles: report.cycles,
                    sd_hits: report.sd.read_hits,
                },
                report.obs,
            )
        }
        Driver::Trace => {
            let mut cfg = TraceSimConfig::paper_table3();
            cfg.switch_dir = switch_dir(sd_entries);
            let report = TraceSimulator::new(cfg).run(&bench.workload);
            (
                Metrics {
                    reads: report.reads,
                    exec_cycles: report.exec_cycles,
                    sd_hits: report.sd.read_hits,
                },
                None,
            )
        }
    }
}

/// Runs one execution-driven workload under a deterministic fault plan
/// (switch-directory scrubs, eviction storms, disable windows, message
/// drops — see [`FaultPlan::parse`]) and returns its full report. Returns
/// `None` for trace-driven workloads: the constant-latency model has no
/// message system to inject faults into.
pub fn run_one_faulted(
    bench: &Bench,
    sd_entries: Option<u32>,
    plan: FaultPlan,
) -> Option<dresar::system::ExecutionReport> {
    if bench.driver != Driver::Execution {
        return None;
    }
    let mut cfg = SystemConfig::paper_table2();
    cfg.switch_dir = switch_dir(sd_entries);
    Some(System::new(cfg, &bench.workload).run(RunOptions {
        faults: Some(plan),
        watchdog: Some(dresar_faults::WatchdogConfig::default()),
        verify_coherence: true,
        ..RunOptions::default()
    }))
}

/// Runs one workload and returns its deterministic component-metrics
/// registry. Execution-driven workloads return the simulator's full
/// snapshot; trace-driven ones get a registry assembled from the trace
/// report's counters (the constant-latency model has no event engine or
/// flit network to instrument).
pub fn run_one_registry(bench: &Bench, sd_entries: Option<u32>) -> dresar_obs::MetricsRegistry {
    match bench.driver {
        Driver::Execution => {
            let mut cfg = SystemConfig::paper_table2();
            cfg.switch_dir = switch_dir(sd_entries);
            System::new(cfg, &bench.workload).run(RunOptions::default()).metrics
        }
        Driver::Trace => {
            let mut cfg = TraceSimConfig::paper_table3();
            cfg.switch_dir = switch_dir(sd_entries);
            let r = TraceSimulator::new(cfg).run(&bench.workload);
            let mut m = dresar_obs::MetricsRegistry::new();
            m.counter("trace.exec_cycles", r.exec_cycles);
            m.counter("trace.read_hits", r.read_hits);
            m.counter("trace.writes", r.writes);
            m.counter("reads.clean", r.reads.clean);
            m.counter("reads.ctoc_home", r.reads.ctoc_home);
            m.counter("reads.ctoc_switch", r.reads.ctoc_switch);
            m.counter("reads.latency_cycles", r.reads.latency_cycles);
            m.counter("reads.stall_cycles", r.reads.stall_cycles);
            m.counter("reads.retries", r.reads.retries);
            m.counter("home.lookups", r.dir.lookups);
            m.counter("home.reads_ctoc", r.dir.reads_ctoc);
            m.counter("home.invals_sent", r.dir.invals_sent);
            m.counter("home.naks", r.dir.naks);
            if sd_entries.is_some() {
                m.counter("sd.snoops", r.sd.snoops);
                m.counter("sd.read_hits", r.sd.read_hits);
                m.counter("sd.inserts", r.sd.inserts);
                m.counter("sd.evictions", r.sd.evictions);
                m.counter("sd.copybacks_marked", r.sd.copybacks_marked);
            }
            m
        }
    }
}

/// Sweep result for one workload: the base system plus every directory
/// size.
pub struct Sweep {
    /// Workload label.
    pub label: &'static str,
    /// Base (no switch directory).
    pub base: Metrics,
    /// `(entries, metrics)` per swept size.
    pub sized: Vec<(u32, Metrics)>,
}

/// The switch-directory sizes of the paper's Figures 8–11.
const SWEEP_SIZES: [u32; 4] = [256, 512, 1024, 2048];

/// The paper's Figure 8–11 sweep: sizes 256–2048 vs base, across the whole
/// suite. Parallelized over (workload x configuration).
pub fn full_sweep(scale: Scale) -> Vec<Sweep> {
    let benches = suite(scale);
    // Flatten (workload x config) into one job list so the pool stays busy
    // even when one workload dominates the runtime.
    let jobs: Vec<(&Bench, Option<u32>)> = benches
        .iter()
        .flat_map(|b| std::iter::once(None).chain(SWEEP_SIZES.map(Some)).map(move |sd| (b, sd)))
        .collect();
    let mut metrics = SweepRunner::from_env().map(&jobs, |&(b, sd)| run_one(b, sd)).into_iter();
    let mut next = || metrics.next().expect("one result per job");
    benches
        .iter()
        .map(|b| Sweep {
            label: b.label,
            base: next(),
            sized: SWEEP_SIZES.iter().map(|&s| (s, next())).collect(),
        })
        .collect()
}

/// Starts a machine-readable JSON document. Every `--json` emitter goes
/// through here so all documents lead with the same two fields:
/// `schema_version` (see [`dresar_types::SCHEMA_VERSION`]) then `tool`.
pub fn json_doc(tool: &str) -> dresar_types::ObjBuilder {
    JsonValue::obj().field("schema_version", dresar_types::SCHEMA_VERSION).field("tool", tool)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_papers_seven_workloads() {
        let s = suite(Scale::Tiny);
        let labels: Vec<_> = s.iter().map(|b| b.label).collect();
        assert_eq!(labels, vec!["FFT", "TC", "SOR", "FWA", "GAUSS", "TPC-C", "TPC-D"]);
        assert!(s[..5].iter().all(|b| b.driver == Driver::Execution));
        assert!(s[5..].iter().all(|b| b.driver == Driver::Trace));
    }

    #[test]
    fn run_one_produces_reads() {
        let s = suite(Scale::Tiny);
        let m = run_one(&s[0], Some(1024));
        assert!(m.reads.total() > 0);
        assert!(m.exec_cycles > 0);
    }
}
