//! Per-phase read-miss latency breakdown.
//!
//! Every read miss is tracked from issue to fill through a small set of
//! milestones — stall begin, network injection, last retry re-issue,
//! service-point arrival (home or switch-directory sink), service
//! completion, data arrival — and the consecutive differences are
//! accumulated as phases. Because the milestones are clamped monotone and
//! telescope, the phase sums of a completed read add up to *exactly* the
//! latency recorded in `ReadStats.latency_cycles`, which the tier-1
//! observability test asserts.

use crate::{class_index, MachineShape, Probe, ServicePoint, CLASS_LABELS};
use dresar_stats::ReadClass;
use dresar_types::{BlockAddr, Cycle, JsonValue, NodeId, ToJson};
use std::collections::HashMap;

/// Phase labels, in accumulation order.
pub const PHASES: [&str; 5] =
    ["l2_miss", "retry_wait", "request_network", "service", "data_return"];

/// Number of log2 latency buckets (bucket `k` holds latencies in
/// `[2^(k-1), 2^k)`; bucket 0 holds latency 0).
pub const HIST_BUCKETS: usize = 40;

/// Accumulated phase totals for one read class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSums {
    /// Completed reads of this class.
    pub count: u64,
    /// Total issue-to-data latency (equals the sum of `phases`).
    pub total_latency: u64,
    /// Per-phase cycle totals, indexed like [`PHASES`].
    pub phases: [u64; 5],
    /// Log2-bucketed latency histogram.
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for PhaseSums {
    fn default() -> Self {
        PhaseSums { count: 0, total_latency: 0, phases: [0; 5], hist: [0; HIST_BUCKETS] }
    }
}

/// Inclusive value range of log2 bucket `k`: bucket 0 holds exactly 0,
/// bucket `k >= 1` holds `[2^(k-1), 2^k - 1]`.
fn bucket_bounds(k: usize) -> (f64, f64) {
    if k == 0 {
        (0.0, 0.0)
    } else {
        ((1u64 << (k - 1)) as f64, ((1u64 << k) - 1) as f64)
    }
}

/// Estimated `p`-quantile (`0 < p <= 1`) of a log2-bucketed histogram laid
/// out like [`PhaseSums::hist`] (bucket 0 holds value 0, bucket `k` holds
/// `[2^(k-1), 2^k)`), linearly interpolated inside the matched bucket's
/// value range. Exact whenever the matched bucket is single-valued (values
/// 0 and 1); otherwise the error is bounded by the bucket width. Returns
/// `None` for an empty histogram or `p` outside `(0, 1]`.
///
/// Shared by the per-phase latency breakdown and the serving layer's
/// service-time reporting, so every p50/p95/p99 in the workspace means the
/// same thing.
pub fn log2_percentile(hist: &[u64], p: f64) -> Option<f64> {
    let count: u64 = hist.iter().sum();
    if count == 0 || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let target = p * count as f64;
    let mut cum = 0.0;
    for (k, &c) in hist.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if cum + c as f64 >= target {
            let (lo, hi) = bucket_bounds(k);
            let frac = (target - cum) / c as f64;
            return Some(lo + frac * (hi - lo));
        }
        cum += c as f64;
    }
    // Float accumulation fell a hair short: clamp to the top bucket.
    let last = hist.iter().rposition(|&c| c > 0)?;
    Some(bucket_bounds(last).1)
}

/// Log2 bucket index for one recorded value, matching the
/// [`log2_percentile`] layout, clamped into `buckets`-wide histograms.
pub fn log2_bucket(value: u64, buckets: usize) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(buckets - 1)
}

impl PhaseSums {
    fn record(&mut self, phases: [u64; 5], latency: u64) {
        self.count += 1;
        self.total_latency += latency;
        for (acc, p) in self.phases.iter_mut().zip(phases) {
            *acc += p;
        }
        self.hist[log2_bucket(latency, HIST_BUCKETS)] += 1;
    }

    /// Estimated `p`-quantile latency (`0 < p <= 1`) from the log2
    /// histogram — see [`log2_percentile`] for the interpolation contract.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        log2_percentile(&self.hist, p)
    }
}

impl ToJson for PhaseSums {
    fn to_json(&self) -> JsonValue {
        let phases = JsonValue::Obj(
            PHASES.iter().zip(self.phases).map(|(n, v)| (n.to_string(), v.to_json())).collect(),
        );
        // Trim trailing empty buckets so the document stays compact.
        let last = self.hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        JsonValue::obj()
            .field("count", self.count)
            .field("total_latency", self.total_latency)
            .field("phases", phases)
            .field("latency_hist_log2", self.hist[..last].to_vec())
            .field("p50", self.percentile(0.50))
            .field("p95", self.percentile(0.95))
            .field("p99", self.percentile(0.99))
            .build()
    }
}

/// Per-node completion summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLatency {
    /// Completed read misses issued by this node.
    pub count: u64,
    /// Their total latency.
    pub total_latency: u64,
}

impl ToJson for NodeLatency {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("count", self.count)
            .field("total_latency", self.total_latency)
            .build()
    }
}

/// The finished breakdown attached to the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Per-class sums, indexed by [`class_index`].
    pub classes: [PhaseSums; 3],
    /// Per-requesting-node summaries.
    pub per_node: Vec<NodeLatency>,
    /// Reads sunk at each switch (service point = that switch directory).
    pub per_switch_sinks: Vec<u64>,
    /// Reads that were NAK'd at least once before completing.
    pub retried_reads: u64,
    /// Reads still open when the run ended (never completed with a class —
    /// e.g. upgraded into writes).
    pub unfinished: u64,
}

impl LatencyBreakdown {
    /// Sum of every per-phase total across all classes. Equals
    /// `ReadStats.latency_cycles` for the same run.
    pub fn total_phase_cycles(&self) -> u64 {
        self.classes.iter().map(|c| c.phases.iter().sum::<u64>()).sum()
    }

    /// Completed reads across all classes.
    pub fn total_reads(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }
}

impl ToJson for LatencyBreakdown {
    fn to_json(&self) -> JsonValue {
        let classes = JsonValue::Obj(
            CLASS_LABELS
                .iter()
                .zip(&self.classes)
                .map(|(n, c)| (n.to_string(), c.to_json()))
                .collect(),
        );
        JsonValue::obj()
            .field("classes", classes)
            .field("total_phase_cycles", self.total_phase_cycles())
            .field("total_reads", self.total_reads())
            .field("per_node", self.per_node.to_vec())
            .field("per_switch_sinks", self.per_switch_sinks.to_vec())
            .field("retried_reads", self.retried_reads)
            .field("unfinished", self.unfinished)
            .build()
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenRead {
    t0: Cycle,
    inject: Cycle,
    attempt: Cycle,
    svc_arrive: Option<Cycle>,
    svc_done: Option<Cycle>,
    sunk_at: Option<u16>,
    retried: bool,
}

/// The live observer: keyed by `(node, block)` — unique because each node
/// holds at most one MSHR per block.
#[derive(Debug)]
pub struct LatencyRecorder {
    open: HashMap<(NodeId, u64), OpenRead>,
    out: LatencyBreakdown,
}

impl LatencyRecorder {
    /// Creates a recorder for a machine of `shape`.
    pub fn new(shape: MachineShape) -> Self {
        LatencyRecorder {
            open: HashMap::new(),
            out: LatencyBreakdown {
                per_node: vec![NodeLatency::default(); shape.nodes],
                per_switch_sinks: vec![0; shape.switches],
                ..Default::default()
            },
        }
    }

    /// Finalizes: anything still open is counted as unfinished.
    pub fn finish(mut self) -> LatencyBreakdown {
        self.out.unfinished = self.open.len() as u64;
        self.out
    }
}

impl Probe for LatencyRecorder {
    fn read_issue(&mut self, node: NodeId, block: BlockAddr, t0: Cycle, inject: Cycle, _txn: u64) {
        self.open.insert(
            (node, block.0),
            OpenRead {
                t0,
                inject,
                attempt: inject,
                svc_arrive: None,
                svc_done: None,
                sunk_at: None,
                retried: false,
            },
        );
    }

    fn read_retry(&mut self, node: NodeId, block: BlockAddr, t: Cycle, _txn: u64) {
        if let Some(r) = self.open.get_mut(&(node, block.0)) {
            r.attempt = t.max(r.attempt);
            r.svc_arrive = None;
            r.svc_done = None;
            r.sunk_at = None;
            r.retried = true;
        }
    }

    fn read_service_arrive(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        at: ServicePoint,
        t: Cycle,
        _txn: u64,
    ) {
        if let Some(r) = self.open.get_mut(&(node, block.0)) {
            if t >= r.attempt && r.svc_arrive.is_none() {
                r.svc_arrive = Some(t);
                r.sunk_at = match at {
                    ServicePoint::Switch(loc) => Some(loc.linear),
                    ServicePoint::Home(_) => None,
                };
            }
        }
    }

    fn read_service_done(&mut self, node: NodeId, block: BlockAddr, t: Cycle, _txn: u64) {
        if let Some(r) = self.open.get_mut(&(node, block.0)) {
            if let Some(a) = r.svc_arrive {
                if t >= a && r.svc_done.is_none() {
                    r.svc_done = Some(t);
                }
            }
        }
    }

    fn read_complete(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        class: ReadClass,
        latency: Cycle,
        t: Cycle,
        _txn: u64,
    ) {
        let Some(r) = self.open.remove(&(node, block.0)) else {
            return;
        };
        // Clamped milestone walk: each phase is the forward distance to the
        // next milestone, so the five phases telescope to exactly t - t0.
        let mut prev = r.t0;
        let mut step = |m: Cycle| {
            let v = m.max(prev);
            let d = v - prev;
            prev = v;
            d
        };
        let l2_miss = step(r.inject);
        let retry_wait = step(r.attempt);
        let (request_network, service) = match (r.svc_arrive, r.svc_done) {
            (Some(a), Some(d)) => {
                let rn = step(a);
                (rn, step(d))
            }
            (Some(a), None) => (step(a), 0),
            _ => (0, 0),
        };
        let data_return = step(t);
        debug_assert_eq!(
            l2_miss + retry_wait + request_network + service + data_return,
            t.saturating_sub(r.t0)
        );
        // `latency` is what ReadStats recorded, `t - issued_at` with the
        // same issue cycle as `r.t0`, so the phases also sum to it.
        debug_assert_eq!(latency, t.saturating_sub(r.t0));
        self.out.classes[class_index(class)].record(
            [l2_miss, retry_wait, request_network, service, data_return],
            t.saturating_sub(r.t0),
        );
        let n = &mut self.out.per_node[node as usize];
        n.count += 1;
        n.total_latency += t.saturating_sub(r.t0);
        if let Some(sw) = r.sunk_at {
            if let Some(slot) = self.out.per_switch_sinks.get_mut(sw as usize) {
                *slot += 1;
            }
        }
        if r.retried {
            self.out.retried_reads += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwitchLoc;

    fn shape() -> MachineShape {
        MachineShape { nodes: 4, switches: 4 }
    }

    const B: BlockAddr = BlockAddr(7);

    #[test]
    fn simple_read_phases_telescope() {
        let mut r = LatencyRecorder::new(shape());
        r.read_issue(1, B, 100, 110, 1);
        r.read_service_arrive(1, B, ServicePoint::Home(2), 150, 1);
        r.read_service_done(1, B, 190, 1);
        r.read_complete(1, B, ReadClass::CleanMemory, 140, 240, 1);
        let out = r.finish();
        let c = out.classes[0];
        assert_eq!(c.count, 1);
        assert_eq!(c.phases, [10, 0, 40, 40, 50]);
        assert_eq!(c.total_latency, 140);
        assert_eq!(out.total_phase_cycles(), 140);
        assert_eq!(out.per_node[1].count, 1);
    }

    #[test]
    fn retry_resets_service_milestones() {
        let mut r = LatencyRecorder::new(shape());
        r.read_issue(0, B, 0, 10, 1);
        r.read_service_arrive(0, B, ServicePoint::Home(1), 40, 1);
        // NAK'd; reissued at 100.
        r.read_retry(0, B, 100, 1);
        r.read_service_arrive(0, B, ServicePoint::Home(1), 130, 1);
        r.read_service_done(0, B, 160, 1);
        r.read_complete(0, B, ReadClass::CleanMemory, 200, 200, 1);
        let out = r.finish();
        let c = out.classes[0];
        assert_eq!(c.phases, [10, 90, 30, 30, 40]);
        assert_eq!(c.total_latency, 200);
        assert_eq!(out.retried_reads, 1);
    }

    #[test]
    fn switch_sink_counts_per_switch_and_has_no_service_phase() {
        let mut r = LatencyRecorder::new(shape());
        r.read_issue(3, B, 0, 5, 1);
        let loc = SwitchLoc { stage: 1, index: 0, linear: 2 };
        r.read_service_arrive(3, B, ServicePoint::Switch(loc), 25, 1);
        r.read_complete(3, B, ReadClass::DirtyCtoCSwitch, 65, 65, 1);
        let out = r.finish();
        let c = out.classes[2];
        assert_eq!(c.phases, [5, 0, 20, 0, 40]);
        assert_eq!(out.per_switch_sinks, vec![0, 0, 1, 0]);
    }

    #[test]
    fn unfinished_reads_are_counted() {
        let mut r = LatencyRecorder::new(shape());
        r.read_issue(0, B, 0, 5, 1);
        let out = r.finish();
        assert_eq!(out.unfinished, 1);
        assert_eq!(out.total_reads(), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut s = PhaseSums::default();
        s.record([0; 5], 0);
        s.record([0; 5], 1);
        s.record([0; 5], 2);
        s.record([0; 5], 3);
        s.record([0; 5], 1024);
        assert_eq!(s.hist[0], 1, "latency 0");
        assert_eq!(s.hist[1], 1, "latency 1");
        assert_eq!(s.hist[2], 2, "latencies 2..4");
        assert_eq!(s.hist[11], 1, "latency 1024");
    }

    /// Percentiles are exact when every sample lands in a single-valued
    /// bucket (latencies 0 and 1 have their own buckets).
    #[test]
    fn percentiles_exact_on_single_valued_buckets() {
        let mut s = PhaseSums::default();
        for _ in 0..100 {
            s.record([0; 5], 0);
        }
        assert_eq!(s.percentile(0.50), Some(0.0));
        assert_eq!(s.percentile(0.99), Some(0.0));

        let mut s = PhaseSums::default();
        for _ in 0..90 {
            s.record([0; 5], 1);
        }
        for _ in 0..10 {
            s.record([0; 5], 1024);
        }
        // p50 and p90 fall wholly inside the latency-1 bucket: exact.
        assert_eq!(s.percentile(0.50), Some(1.0));
        assert_eq!(s.percentile(0.90), Some(1.0));
        // p95 falls in the [1024, 2047] bucket; the estimate must stay
        // inside that bucket's value range.
        let p95 = s.percentile(0.95).unwrap();
        assert!((1024.0..=2047.0).contains(&p95), "p95 = {p95}");
    }

    /// On a distribution spread across one multi-valued bucket, the
    /// interpolation error is bounded by the bucket width.
    #[test]
    fn percentile_interpolates_within_bucket() {
        let mut s = PhaseSums::default();
        // 50x latency 2 and 50x latency 3 share log2 bucket 2 ([2, 3]).
        for _ in 0..50 {
            s.record([0; 5], 2);
        }
        for _ in 0..50 {
            s.record([0; 5], 3);
        }
        let p50 = s.percentile(0.50).unwrap();
        assert!((p50 - 2.5).abs() < 1e-9, "midpoint of the [2,3] range, got {p50}");
        let p99 = s.percentile(0.99).unwrap();
        assert!((2.0..=3.0).contains(&p99));
        // p = 1.0 reaches the bucket's upper edge.
        assert_eq!(s.percentile(1.0), Some(3.0));
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = PhaseSums::default();
        assert_eq!(empty.percentile(0.5), None, "no samples");
        let mut s = PhaseSums::default();
        s.record([0; 5], 7);
        assert_eq!(s.percentile(0.0), None, "p=0 rejected");
        assert_eq!(s.percentile(1.5), None, "p>1 rejected");
        // A single sample: any valid p lands in its bucket ([4, 7]).
        let v = s.percentile(0.5).unwrap();
        assert!((4.0..=7.0).contains(&v));
    }

    /// Values past the histogram's range clamp into the top bucket rather
    /// than indexing out of bounds, and a distribution entirely in that
    /// bucket still yields in-range percentiles.
    #[test]
    fn all_mass_in_top_bucket_clamps_and_stays_in_range() {
        assert_eq!(log2_bucket(0, HIST_BUCKETS), 0);
        assert_eq!(log2_bucket(1, HIST_BUCKETS), 1);
        // 2^39 and u64::MAX both exceed a 40-bucket histogram: clamped.
        assert_eq!(log2_bucket(1 << 39, HIST_BUCKETS), HIST_BUCKETS - 1);
        assert_eq!(log2_bucket(u64::MAX, HIST_BUCKETS), HIST_BUCKETS - 1);

        // (1 << 60, not u64::MAX: `total_latency` sums the raw samples.)
        let mut s = PhaseSums::default();
        for _ in 0..10 {
            s.record([0; 5], 1 << 60);
        }
        assert_eq!(s.hist[HIST_BUCKETS - 1], 10, "every sample in the top bucket");
        let (lo, hi) = bucket_bounds(HIST_BUCKETS - 1);
        for p in [0.01, 0.50, 0.99, 1.0] {
            let v = s.percentile(p).unwrap();
            assert!((lo..=hi).contains(&v), "p{p}: {v} outside top bucket [{lo}, {hi}]");
        }
    }

    /// A degenerate single-valued distribution collapses p50 and p99 to
    /// the same bucket — exactly equal when the bucket holds one value,
    /// and never further apart than the bucket width otherwise.
    #[test]
    fn single_valued_distribution_collapses_p50_and_p99() {
        // One sample in the [4, 7] bucket: every percentile interpolates
        // inside that bucket's range, never outside it.
        let one = vec![0, 0, 0, 1];
        let p50 = log2_percentile(&one, 0.50).unwrap();
        let p99 = log2_percentile(&one, 0.99).unwrap();
        assert!((4.0..=7.0).contains(&p50) && (4.0..=7.0).contains(&p99), "{p50} {p99}");
        // Many samples of value 1 (a single-valued bucket): exactly equal,
        // and exactly the value.
        let mut s = PhaseSums::default();
        for _ in 0..1000 {
            s.record([0; 5], 1);
        }
        assert_eq!(s.percentile(0.50), Some(1.0));
        assert_eq!(s.percentile(0.50), s.percentile(0.99));
    }

    #[test]
    fn json_includes_percentiles() {
        let mut s = PhaseSums::default();
        for _ in 0..10 {
            s.record([0; 5], 1);
        }
        let j = s.to_json();
        assert_eq!(j.get("p50").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(j.get("p99").and_then(JsonValue::as_f64), Some(1.0));
        let empty = PhaseSums::default();
        assert_eq!(empty.to_json().get("p50"), Some(&JsonValue::Null));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = LatencyRecorder::new(shape());
        r.read_issue(1, B, 0, 10, 1);
        r.read_service_arrive(1, B, ServicePoint::Home(0), 20, 1);
        r.read_service_done(1, B, 30, 1);
        r.read_complete(1, B, ReadClass::CleanMemory, 50, 50, 1);
        let j = r.finish().to_json();
        let classes = j.get("classes").expect("classes present");
        let clean = classes.get("clean_memory").expect("class key");
        assert_eq!(clean.get("count").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(j.get("total_phase_cycles").and_then(JsonValue::as_u64), Some(50));
    }
}
