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
//!   the switch-directory benefit figures ([`benefit`]);
//! * `dresar_diff` — explains the cycle delta between two recorded runs.
//!
//! Timing benches (plain `std::time` harnesses, run with `cargo bench`):
//! `switchdir_micro` (snoop/insert throughput) and `crossbar` (flit-level
//! arbitration).

pub mod benefit;
pub mod cli;
pub mod harness;
pub mod sweep;

use dresar::system::{ExecutionReport, RunOptions, System};
use dresar_faults::{FaultPlan, WatchdogConfig};
use dresar_obs::{MetricsRegistry, ObserverConfig};
use dresar_stats::ReadStats;
use dresar_trace_sim::{TraceReport, TraceSimulator};
use dresar_types::config::{SwitchDirConfig, SystemConfig, TraceSimConfig};
use dresar_types::runspec::SUITE_SEED;
use dresar_types::{JsonValue, ToJson, Workload};
use dresar_workloads::{commercial, scientific, Scale};
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

impl From<&ExecutionReport> for Metrics {
    fn from(r: &ExecutionReport) -> Self {
        Metrics { reads: r.reads, exec_cycles: r.cycles, sd_hits: r.sd.read_hits }
    }
}

impl From<&TraceReport> for Metrics {
    fn from(r: &TraceReport) -> Self {
        Metrics { reads: r.reads, exec_cycles: r.exec_cycles, sd_hits: r.sd.read_hits }
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

/// The simulator that evaluates a workload (the paper runs scientific
/// applications execution-driven and commercial traces trace-driven).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Execution-driven 16-node system (Table 2).
    Execution,
    /// Trace-driven constant-latency model (Table 3).
    Trace,
}

impl Driver {
    /// Checks the configuration this driver would simulate for `cfg`.
    pub fn validate(self, cfg: &SystemConfig) -> Result<(), String> {
        match self {
            Driver::Execution => cfg.validate(),
            Driver::Trace => trace_config(cfg).validate(),
        }
    }
}

/// One workload of the paper's evaluation: its figure label, the
/// simulator that runs it, and how to generate its reference streams.
#[derive(Debug)]
pub struct CatalogueEntry {
    /// Display name matching the paper's figures.
    pub label: &'static str,
    /// Which simulator drives it.
    pub driver: Driver,
    generate: fn(usize, Scale, u64) -> Workload,
}

impl CatalogueEntry {
    /// The workload for `processors` processors at `scale`. Scientific
    /// kernels are pure functions of (processors, scale); the commercial
    /// traces also fold in `seed`.
    pub fn workload(&self, processors: usize, scale: Scale, seed: u64) -> Workload {
        (self.generate)(processors, scale, seed)
    }
}

/// The paper's seven workloads in figure order: the five scientific
/// kernels (execution-driven, Table 2), then the two commercial traces
/// (trace-driven, Table 3).
pub static CATALOGUE: [CatalogueEntry; 7] = {
    use Driver::{Execution, Trace};
    const fn entry(
        label: &'static str,
        driver: Driver,
        generate: fn(usize, Scale, u64) -> Workload,
    ) -> CatalogueEntry {
        CatalogueEntry { label, driver, generate }
    }
    [
        entry("FFT", Execution, |p, s, _| scientific::fft(p, s.fft_points())),
        entry("TC", Execution, |p, s, _| scientific::tc(p, s.matrix_n())),
        entry("SOR", Execution, |p, s, _| scientific::sor(p, s.grid_n(), s.sor_iters())),
        entry("FWA", Execution, |p, s, _| scientific::fwa(p, s.matrix_n())),
        entry("GAUSS", Execution, |p, s, _| scientific::gauss(p, s.matrix_n())),
        entry("TPC-C", Trace, |p, s, seed| commercial::tpcc(p, s.commercial_refs(), seed)),
        // TPC-D mixes the seed so its trace is independent of TPC-C's.
        entry("TPC-D", Trace, |p, s, seed| {
            commercial::tpcd(p, s.commercial_refs(), seed ^ 0x9e37_79b9)
        }),
    ]
};

/// The catalogue entry labelled `label`, if any.
pub fn catalogue_entry(label: &str) -> Option<&'static CatalogueEntry> {
    CATALOGUE.iter().find(|e| e.label == label)
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

impl Bench {
    /// Runs this workload on [`paper_machine`]`(sd_entries)`.
    pub fn run(&self, sd_entries: Option<u32>, opts: RunOptions) -> RunReport {
        run(self.driver, &self.workload, paper_machine(sd_entries), opts)
    }
}

/// The paper's seven-workload evaluation suite at a given scale, on the
/// 16-processor machine with the suite's commercial-trace seed.
pub fn suite(scale: Scale) -> Vec<Bench> {
    CATALOGUE
        .iter()
        .map(|e| Bench {
            label: e.label,
            workload: e.workload(16, scale, SUITE_SEED),
            driver: e.driver,
        })
        .collect()
}

/// The paper's switch-directory geometry at `entries` entries per switch,
/// or `None` (the base machine) when no size is given.
pub fn switch_dir(entries: Option<u32>) -> Option<SwitchDirConfig> {
    entries.map(|entries| SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() })
}

/// The paper's Table 2 machine with `sd_entries` switch-directory entries
/// per switch, or the base machine for `None`.
pub fn paper_machine(sd_entries: Option<u32>) -> SystemConfig {
    SystemConfig { switch_dir: switch_dir(sd_entries), ..SystemConfig::paper_table2() }
}

/// The trace-driven model of `cfg`: Table 3's constant latencies and
/// cache on `cfg`'s node count, switch radix and switch-directory geometry.
fn trace_config(cfg: &SystemConfig) -> TraceSimConfig {
    TraceSimConfig {
        nodes: cfg.nodes,
        switch_radix: cfg.switch.radix,
        switch_dir: cfg.switch_dir,
        ..TraceSimConfig::paper_table3()
    }
}

/// Options for a figure run: no observers, not even the always-on flight
/// recorder.
pub fn figure_options() -> RunOptions {
    RunOptions { observers: ObserverConfig::default(), ..RunOptions::default() }
}

/// Options for a fault-injected run: the plan, plus the coherence watchdog
/// and the end-of-run coherence audit that judge how the machine coped.
pub fn fault_options(plan: FaultPlan) -> RunOptions {
    RunOptions {
        faults: Some(plan),
        watchdog: Some(WatchdogConfig::default()),
        verify_coherence: true,
        ..RunOptions::default()
    }
}

/// Runs `workload` on `driver`'s simulator. The trace-driven model ignores
/// `opts`: it has no observers, fault injector or watchdog.
///
/// # Panics
/// Panics if `driver` rejects `cfg` (see [`Driver::validate`]).
pub fn run(driver: Driver, workload: &Workload, cfg: SystemConfig, opts: RunOptions) -> RunReport {
    match driver {
        Driver::Execution => RunReport::Execution(Box::new(System::new(cfg, workload).run(opts))),
        Driver::Trace => {
            RunReport::Trace(Box::new(TraceSimulator::new(trace_config(&cfg)).run(workload)))
        }
    }
}

/// One run's report, from whichever simulator drove it.
#[derive(Debug, Clone)]
pub enum RunReport {
    /// An execution-driven run.
    Execution(Box<ExecutionReport>),
    /// A trace-driven run.
    Trace(Box<TraceReport>),
}

impl RunReport {
    /// The figure metrics.
    pub fn metrics(&self) -> Metrics {
        match self {
            RunReport::Execution(r) => Metrics::from(&**r),
            RunReport::Trace(r) => Metrics::from(&**r),
        }
    }

    /// The execution-driven report, or `None` for a trace-driven run.
    pub fn execution(self) -> Option<ExecutionReport> {
        match self {
            RunReport::Execution(r) => Some(*r),
            RunReport::Trace(_) => None,
        }
    }

    /// The run's deterministic component-metrics registry. An
    /// execution-driven run returns the simulator's full snapshot; a
    /// trace-driven one gets a registry assembled from the trace report's
    /// counters (the constant-latency model has no event engine or flit
    /// network to instrument), with the `sd.*` block only when the run had
    /// switch directories.
    pub fn registry(self) -> MetricsRegistry {
        let r = match self {
            RunReport::Execution(r) => return r.metrics,
            RunReport::Trace(r) => r,
        };
        let mut m = MetricsRegistry::new();
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
        if r.switch_dirs {
            m.counter("sd.snoops", r.sd.snoops);
            m.counter("sd.read_hits", r.sd.read_hits);
            m.counter("sd.inserts", r.sd.inserts);
            m.counter("sd.evictions", r.sd.evictions);
            m.counter("sd.copybacks_marked", r.sd.copybacks_marked);
        }
        m
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> JsonValue {
        match self {
            RunReport::Execution(r) => r.to_json(),
            RunReport::Trace(r) => r.to_json(),
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
    let mut metrics = SweepRunner::from_env()
        .map(&jobs, |&(b, sd)| b.run(sd, figure_options()).metrics())
        .into_iter();
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
    fn bench_run_produces_reads() {
        let s = suite(Scale::Tiny);
        let m = s[0].run(Some(1024), RunOptions::default()).metrics();
        assert!(m.reads.total() > 0);
        assert!(m.exec_cycles > 0);
    }
}
