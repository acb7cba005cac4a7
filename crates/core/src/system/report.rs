//! Aggregated results of one execution-driven simulation run.

use dresar_directory::DirStats;
use dresar_faults::{FaultStats, WatchdogReport};
use dresar_obs::{MetricsRegistry, ObsReport};
use dresar_stats::ReadStats;
use dresar_types::{Cycle, JsonValue, ToJson};

use crate::switchdir::SdStats;
use crate::system::CoherenceOutcome;

/// Everything the evaluation figures need from one run.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Workload name.
    pub workload: String,
    /// Total execution time in cycles (Figure 11's basis): the cycle the
    /// last processor drained its stream, write buffer and transactions.
    pub cycles: Cycle,
    /// Aggregated read statistics (Figures 1, 9, 10).
    pub reads: ReadStats,
    /// Aggregated home-directory statistics (Figure 8's home-node CtoC
    /// count is `dir.reads_ctoc`).
    pub dir: DirStats,
    /// Aggregated switch-directory statistics across all switches.
    pub sd: SdStats,
    /// Messages moved through the interconnect (hop count).
    pub network_hops: u64,
    /// Writebacks sent by caches.
    pub writebacks: u64,
    /// Total memory references executed.
    pub refs_executed: u64,
    /// Observer payloads (latency breakdown, time series, trace), present
    /// when [`crate::system::RunOptions::observers`] enabled any.
    pub obs: Option<ObsReport>,
    /// Deterministic component-metrics snapshot (queue depths, arbitration,
    /// directory occupancy, cache traffic...), assembled after the run from
    /// each structure's counters. Always populated by the simulator; the
    /// `bench_report` regression gate diffs it against a baseline.
    pub metrics: MetricsRegistry,
    /// What the fault injector actually did, when a fault plan was active.
    pub faults: Option<FaultStats>,
    /// The coherence watchdog's verdict, when it tripped.
    pub watchdog: Option<WatchdogReport>,
    /// End-of-run coherence audit, when
    /// [`crate::system::RunOptions::verify_coherence`] was set.
    pub coherence: Option<CoherenceOutcome>,
    /// Recoverable simulation errors recorded along the way (failed route
    /// construction and the like). Empty on healthy runs.
    pub sim_errors: Vec<String>,
}

impl ExecutionReport {
    /// Home-node cache-to-cache transfers (Figure 8's metric): dirty reads
    /// that had to be serviced via the home directory.
    pub fn home_ctoc(&self) -> u64 {
        self.reads.ctoc_home
    }

    /// Average read-miss latency in cycles (Figure 9).
    pub fn avg_read_latency(&self) -> f64 {
        self.reads.avg_latency()
    }

    /// Total read stall cycles across processors (Figure 10).
    pub fn read_stall_cycles(&self) -> u64 {
        self.reads.stall_cycles
    }

    /// Fraction of read misses serviced dirty (Figure 1).
    pub fn dirty_read_fraction(&self) -> f64 {
        self.reads.dirty_fraction()
    }
}

impl ToJson for ExecutionReport {
    fn to_json(&self) -> JsonValue {
        let mut b = JsonValue::obj()
            .field("workload", self.workload.as_str())
            .field("cycles", self.cycles)
            .field("reads", self.reads.to_json())
            .field("dir", self.dir.to_json())
            .field("sd", self.sd.to_json())
            .field("network_hops", self.network_hops)
            .field("writebacks", self.writebacks)
            .field("refs_executed", self.refs_executed)
            .field("avg_read_latency", self.avg_read_latency())
            .field("dirty_read_fraction", self.dirty_read_fraction());
        if let Some(obs) = &self.obs {
            b = b.field("obs", obs.to_json());
        }
        if !self.metrics.is_empty() {
            b = b.field("metrics", self.metrics.to_json());
        }
        if let Some(f) = &self.faults {
            b = b.field("faults", f.to_json());
        }
        if let Some(w) = &self.watchdog {
            b = b.field("watchdog", w.to_json());
        }
        if let Some(c) = &self.coherence {
            b = b.field("coherence", c.to_json());
        }
        if !self.sim_errors.is_empty() {
            b = b.field("sim_errors", self.sim_errors.clone());
        }
        b.build()
    }
}
