//! # dresar-obs
//!
//! Observability for the dresar simulators.
//!
//! The central abstraction is the [`Probe`] trait: a vocabulary of
//! message-lifecycle, switch-directory, home-directory and resource events
//! that the simulators emit from their hot paths. Every method has an empty
//! `#[inline]` default, and the simulators are generic over `P: Probe`, so a
//! run instrumented with [`NullProbe`] monomorphizes to exactly the
//! uninstrumented code — observability is free when it is off.
//!
//! Four observers implement `Probe`:
//!
//! * [`breakdown::LatencyRecorder`] — decomposes every read miss into
//!   per-phase cycle counts (L2 detect, retry wait, request network, home
//!   service, data return) with log2-bucketed latency histograms per
//!   [`ReadClass`] and per-node / per-switch summaries;
//! * [`sampler::Sampler`] — cycle-windowed time series of event-queue
//!   depth, home-controller busy cycles, link busy cycles, switch-directory
//!   occupancy and eviction/NAK rates;
//! * [`attrib::AttribObserver`] — per-resource contention attribution
//!   (links, crossbar ports, SD banks, home directories) split by traffic
//!   class, distilled into a deterministic topology heatmap naming the
//!   critical resource;
//! * the event log ([`recorder`]) — one compact record per protocol
//!   event, with two renderings: a bounded flight-recorder ring, cheap
//!   enough to leave on for every run and dumped post mortem when a
//!   watchdog, audit or fault anomaly fires; and, when traced, a Chrome
//!   `about:tracing` / Perfetto trace-event document of message and
//!   transaction lifecycles, with flow events stitching each transaction
//!   into a causal tree.
//!
//! [`ObserverSet`] bundles any subset of the four behind one `Probe`
//! implementation and is what [`ObserverConfig`] enables from run options.

pub mod attrib;
pub mod breakdown;
pub mod hostprof;
pub mod metrics;
pub mod recorder;
pub mod sampler;
mod trace;

use dresar_stats::ReadClass;
use dresar_types::msg::{Message, MsgType};
use dresar_types::{BlockAddr, Cycle, JsonValue, NodeId, ToJson};

pub use attrib::{
    link_label, traffic_class, AttribObserver, Heatmap, DEFAULT_ATTRIB_WINDOW, TRAFFIC_CLASSES,
};
pub use breakdown::{
    log2_bucket, log2_percentile, LatencyBreakdown, LatencyRecorder, PhaseSums, PHASES,
};
pub use hostprof::{HostProfile, HostProfiler, PhaseTiming, RunTiming};
pub use metrics::{MetricDelta, MetricValue, MetricsRegistry};
use recorder::EventLog;
pub use recorder::{FlightDump, DEFAULT_FLIGHT_CAPACITY};
pub use sampler::{Sampler, TimeSeries, WindowSample};

/// Identifies a switch: BMIN position plus the simulator's linear index
/// (stage-major), which observers use for dense per-switch vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchLoc {
    /// Stage of the BMIN, 0 = adjacent to the processors.
    pub stage: u8,
    /// Index of the switch within its stage.
    pub index: u16,
    /// Linear index across all stages (stage-major).
    pub linear: u16,
}

/// Opaque identity of a directed network link, packed by the interconnect
/// (variant tag in the top bits). Stable across runs of the same topology.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct LinkKey(pub u64);

/// Where a read miss was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicePoint {
    /// The home node's directory/DRAM.
    Home(NodeId),
    /// A switch directory sank the read (SD hit or accumulated wait).
    Switch(SwitchLoc),
}

/// Outcome of one switch-directory snoop, as observed on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdProbeEvent {
    /// A passing `WriteReply` installed (or refreshed) a MODIFIED entry.
    Insert,
    /// An install was refused (all ways pinned TRANSIENT).
    InsertBlocked,
    /// A valid MODIFIED entry was evicted to make room.
    Evict,
    /// A read hit a MODIFIED entry: sunk, CtoC request generated.
    ReadHit {
        /// Recorded owner the CtoC is routed to.
        owner: NodeId,
        /// The reader being served.
        requester: NodeId,
    },
    /// A read hit a TRANSIENT entry and was NAK'd.
    TransientNak {
        /// The NAK'd reader.
        requester: NodeId,
    },
    /// A read hit a TRANSIENT entry and was queued in the bit vector
    /// (Accumulate policy).
    ReaderAccumulated {
        /// The accumulated reader.
        requester: NodeId,
    },
    /// A write/CtoC/writeback invalidated an entry.
    Invalidate,
    /// A write or foreign CtoC was NAK'd on a TRANSIENT entry.
    WriteNak {
        /// The NAK'd requester.
        requester: NodeId,
    },
    /// A copyback was marked with served-sharer pids.
    CopybackMarked {
        /// Number of pids carried.
        served: u32,
    },
    /// A writeback's data answered waiting readers.
    WritebackServed {
        /// Number of readers served.
        served: u32,
    },
}

impl SdProbeEvent {
    /// Short stable label (the trace's event name).
    pub fn label(&self) -> &'static str {
        match self {
            SdProbeEvent::Insert => "sd_insert",
            SdProbeEvent::InsertBlocked => "sd_insert_blocked",
            SdProbeEvent::Evict => "sd_evict",
            SdProbeEvent::ReadHit { .. } => "sd_read_hit",
            SdProbeEvent::TransientNak { .. } => "sd_transient_nak",
            SdProbeEvent::ReaderAccumulated { .. } => "sd_reader_accumulated",
            SdProbeEvent::Invalidate => "sd_invalidate",
            SdProbeEvent::WriteNak { .. } => "sd_write_nak",
            SdProbeEvent::CopybackMarked { .. } => "sd_copyback_marked",
            SdProbeEvent::WritebackServed { .. } => "sd_writeback_served",
        }
    }
}

/// Stable-state kind of a home-directory block (the full state carries a
/// sharer vector / owner; observers only need the discriminant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirStateKind {
    /// Memory is the only copy.
    Uncached,
    /// Read-only copies exist.
    Shared,
    /// One cache holds the block dirty.
    Modified,
    /// One cache holds the block dirty *and* read-only copies exist
    /// (MOESI's dirty-sharing state; never reported under MSI).
    Owned,
}

impl DirStateKind {
    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            DirStateKind::Uncached => "U",
            DirStateKind::Shared => "S",
            DirStateKind::Modified => "M",
            DirStateKind::Owned => "O",
        }
    }
}

/// Kind of request driving a home-directory FSM transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeReq {
    /// `ReadRequest`.
    Read,
    /// `WriteRequest`.
    Write,
    /// `InvalAck`.
    InvalAck,
    /// `CopyBack`.
    CopyBack,
    /// `WriteBack`.
    WriteBack,
}

impl HomeReq {
    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            HomeReq::Read => "read",
            HomeReq::Write => "write",
            HomeReq::InvalAck => "inval_ack",
            HomeReq::CopyBack => "copyback",
            HomeReq::WriteBack => "writeback",
        }
    }
}

/// One observed home-directory FSM transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeTransition {
    /// The request kind driving the transition.
    pub req: HomeReq,
    /// Stable state before.
    pub from: DirStateKind,
    /// Whether a transaction was in flight before.
    pub from_busy: bool,
    /// Stable state after.
    pub to: DirStateKind,
    /// Whether a transaction is in flight after.
    pub to_busy: bool,
    /// The request was NAK'd.
    pub nak: bool,
    /// The request was parked in the pending queue.
    pub queued: bool,
}

/// The event vocabulary the simulators emit. Every method defaults to a
/// no-op; [`NullProbe`] relies on that to vanish entirely after inlining.
#[allow(unused_variables)]
pub trait Probe {
    /// One simulation event popped at time `t` with `queue_depth` events
    /// still pending.
    #[inline]
    fn tick(&mut self, t: Cycle, queue_depth: usize) {}

    /// A message was injected into the network.
    #[inline]
    fn msg_send(&mut self, t: Cycle, msg: &Message) {}

    /// A message header reached a switch (before the snoop).
    #[inline]
    fn msg_hop(&mut self, t: Cycle, msg: &Message, sw: SwitchLoc) {}

    /// A switch directory consumed the message.
    #[inline]
    fn msg_sink(&mut self, t: Cycle, msg: &Message, sw: SwitchLoc) {}

    /// A message was delivered at its endpoint (tail fully arrived).
    #[inline]
    fn msg_deliver(&mut self, t: Cycle, msg: &Message) {}

    /// A switch-directory snoop produced a notable outcome.
    #[inline]
    fn sd_event(&mut self, t: Cycle, sw: SwitchLoc, block: BlockAddr, ev: SdProbeEvent) {}

    /// Switch-directory load after a snoop: valid entries and TRANSIENT
    /// (pending-buffer) entries.
    #[inline]
    fn sd_occupancy(&mut self, t: Cycle, sw: SwitchLoc, valid: usize, transient: usize) {}

    /// A home-directory FSM transition executed.
    #[inline]
    fn home_fsm(&mut self, t: Cycle, home: NodeId, block: BlockAddr, tr: HomeTransition) {}

    /// The home controller + DRAM processed a `kind` message: arrival at
    /// `arrive`, controller acquired at `start`, finished at `done`.
    #[inline]
    fn home_service(
        &mut self,
        home: NodeId,
        block: BlockAddr,
        kind: MsgType,
        arrive: Cycle,
        start: Cycle,
        done: Cycle,
    ) {
    }

    /// A processor received a NAK for its outstanding transaction.
    #[inline]
    fn nak_received(&mut self, t: Cycle, node: NodeId, block: BlockAddr) {}

    /// A directed link was booked from `start` to `end` for `flits` flits
    /// by a `kind` message that waited `wait` cycles for the link. `dense`
    /// is the interconnect's `LinkIndexer` id, a stable dense key for
    /// per-link observer tables.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn link_traverse(
        &mut self,
        link: LinkKey,
        dense: u32,
        start: Cycle,
        end: Cycle,
        flits: u32,
        kind: MsgType,
        wait: Cycle,
    ) {
    }

    /// A read miss left the processor: stall began at `t0`, the request
    /// enters the network at `inject` (after L2 miss detection). `txn` is
    /// the stable transaction id every message sent on this miss's behalf
    /// carries, linking all lifecycle events into one causal tree.
    #[inline]
    fn read_issue(&mut self, node: NodeId, block: BlockAddr, t0: Cycle, inject: Cycle, txn: u64) {}

    /// A NAK'd read re-issued at `t`.
    #[inline]
    fn read_retry(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {}

    /// The read reached its service point (home arrival or SD sink).
    #[inline]
    fn read_service_arrive(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        at: ServicePoint,
        t: Cycle,
        txn: u64,
    ) {
    }

    /// The service point finished and the reply/intervention departed.
    #[inline]
    fn read_service_done(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {}

    /// The read miss completed with `latency` cycles issue-to-data.
    #[inline]
    fn read_complete(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        class: ReadClass,
        latency: Cycle,
        t: Cycle,
        txn: u64,
    ) {
    }
}

/// The do-nothing probe: instrumented code monomorphized with this is
/// identical to uninstrumented code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Which observers to enable for a run. `Default` is everything off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverConfig {
    /// Record per-phase read-miss latency breakdowns.
    pub latency_breakdown: bool,
    /// Collect a time series with this window size in cycles.
    pub timeseries_window: Option<Cycle>,
    /// Render the event log as a Chrome trace-event JSON document (the
    /// log then keeps every record).
    pub trace: bool,
    /// Keep the last N event-log records for postmortem flight dumps.
    pub flight: Option<usize>,
    /// Attribute contention per topology resource into a heatmap, with
    /// this attribution-window size in cycles.
    pub heatmap_window: Option<Cycle>,
}

impl ObserverConfig {
    /// Whether any observer is on.
    pub fn enabled(&self) -> bool {
        self.latency_breakdown
            || self.timeseries_window.is_some()
            || self.trace
            || self.flight.is_some()
            || self.heatmap_window.is_some()
    }

    /// Everything on, with the given sampling window.
    pub fn all(window: Cycle) -> Self {
        ObserverConfig {
            latency_breakdown: true,
            timeseries_window: Some(window),
            trace: true,
            flight: Some(DEFAULT_FLIGHT_CAPACITY),
            heatmap_window: Some(window),
        }
    }
}

/// Static shape of the machine, needed to size per-node / per-switch
/// observer state.
#[derive(Debug, Clone, Copy)]
pub struct MachineShape {
    /// Number of nodes.
    pub nodes: usize,
    /// Total number of switches across all stages.
    pub switches: usize,
}

impl MachineShape {
    /// Switches per BMIN stage. A radix-`r` BMIN over `nodes = r^s` nodes
    /// has `s` stages of `nodes / r` switches, and the total `s * nodes / r`
    /// falls strictly as `r` grows, so it fixes `r`. A shape no BMIN has
    /// counts as one stage.
    pub(crate) fn switches_per_stage(&self) -> usize {
        (2..=self.nodes)
            .map(|radix| (radix, self.nodes / radix))
            .find(|&(radix, per)| {
                let stages = self.switches / per;
                per * radix == self.nodes
                    && per * stages == self.switches
                    && radix.checked_pow(stages as u32) == Some(self.nodes)
            })
            .map_or(self.switches, |(_, per)| per)
    }
}

/// What the observers produced, attached to the execution report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Per-phase read-latency breakdown, if recorded.
    pub breakdown: Option<LatencyBreakdown>,
    /// Cycle-windowed time series, if sampled.
    pub timeseries: Option<TimeSeries>,
    /// Chrome trace-event JSON document, if traced.
    pub trace: Option<String>,
    /// Flight-recorder dump, if attached (anomalous runs only).
    pub flight: Option<FlightDump>,
    /// Topology contention heatmap, if attributed.
    pub heatmap: Option<Heatmap>,
}

impl ObsReport {
    /// Whether every observer payload is absent.
    pub fn is_empty(&self) -> bool {
        self.breakdown.is_none()
            && self.timeseries.is_none()
            && self.trace.is_none()
            && self.flight.is_none()
            && self.heatmap.is_none()
    }
}

impl ToJson for ObsReport {
    fn to_json(&self) -> JsonValue {
        let mut b = JsonValue::obj();
        if let Some(bd) = &self.breakdown {
            b = b.field("breakdown", bd.to_json());
        }
        if let Some(ts) = &self.timeseries {
            b = b.field("timeseries", ts.to_json());
        }
        if let Some(tr) = &self.trace {
            b = b.field("trace_events", JsonValue::Str(tr.clone()));
        }
        if let Some(fl) = &self.flight {
            b = b.field("flight", fl.to_json());
        }
        if let Some(hm) = &self.heatmap {
            b = b.field("heatmap", hm.to_json());
        }
        b.build()
    }
}

/// Bundles the enabled observers behind a single [`Probe`] implementation.
#[derive(Debug)]
pub struct ObserverSet {
    recorder: Option<LatencyRecorder>,
    sampler: Option<Sampler>,
    log: Option<EventLog>,
    attrib: Option<AttribObserver>,
}

impl ObserverSet {
    /// Builds the observers `cfg` enables for a machine of `shape`.
    pub fn new(cfg: ObserverConfig, shape: MachineShape) -> Self {
        ObserverSet {
            recorder: cfg.latency_breakdown.then(|| LatencyRecorder::new(shape)),
            sampler: cfg.timeseries_window.map(Sampler::new),
            log: EventLog::new(cfg.flight, cfg.trace, shape),
            attrib: cfg.heatmap_window.map(|w| AttribObserver::new(w, shape.nodes, shape.switches)),
        }
    }

    /// Finalizes all observers into the report payload.
    pub fn finish(self) -> ObsReport {
        let (trace, flight) = self.log.map(EventLog::finish).unwrap_or_default();
        ObsReport {
            breakdown: self.recorder.map(LatencyRecorder::finish),
            timeseries: self.sampler.map(Sampler::finish),
            trace,
            flight,
            heatmap: self.attrib.map(AttribObserver::finish),
        }
    }
}

macro_rules! fan_out {
    ($self:ident, $m:ident ( $($a:expr),* )) => {
        if let Some(r) = $self.recorder.as_mut() {
            r.$m($($a),*);
        }
        if let Some(s) = $self.sampler.as_mut() {
            s.$m($($a),*);
        }
        if let Some(l) = $self.log.as_mut() {
            l.$m($($a),*);
        }
        if let Some(a) = $self.attrib.as_mut() {
            a.$m($($a),*);
        }
    };
}

impl Probe for ObserverSet {
    fn tick(&mut self, t: Cycle, queue_depth: usize) {
        fan_out!(self, tick(t, queue_depth));
    }
    fn msg_send(&mut self, t: Cycle, msg: &Message) {
        fan_out!(self, msg_send(t, msg));
    }
    fn msg_hop(&mut self, t: Cycle, msg: &Message, sw: SwitchLoc) {
        fan_out!(self, msg_hop(t, msg, sw));
    }
    fn msg_sink(&mut self, t: Cycle, msg: &Message, sw: SwitchLoc) {
        fan_out!(self, msg_sink(t, msg, sw));
    }
    fn msg_deliver(&mut self, t: Cycle, msg: &Message) {
        fan_out!(self, msg_deliver(t, msg));
    }
    fn sd_event(&mut self, t: Cycle, sw: SwitchLoc, block: BlockAddr, ev: SdProbeEvent) {
        fan_out!(self, sd_event(t, sw, block, ev));
    }
    fn sd_occupancy(&mut self, t: Cycle, sw: SwitchLoc, valid: usize, transient: usize) {
        fan_out!(self, sd_occupancy(t, sw, valid, transient));
    }
    fn home_fsm(&mut self, t: Cycle, home: NodeId, block: BlockAddr, tr: HomeTransition) {
        fan_out!(self, home_fsm(t, home, block, tr));
    }
    fn home_service(
        &mut self,
        home: NodeId,
        block: BlockAddr,
        kind: MsgType,
        arrive: Cycle,
        start: Cycle,
        done: Cycle,
    ) {
        fan_out!(self, home_service(home, block, kind, arrive, start, done));
    }
    fn nak_received(&mut self, t: Cycle, node: NodeId, block: BlockAddr) {
        fan_out!(self, nak_received(t, node, block));
    }
    fn link_traverse(
        &mut self,
        link: LinkKey,
        dense: u32,
        start: Cycle,
        end: Cycle,
        flits: u32,
        kind: MsgType,
        wait: Cycle,
    ) {
        fan_out!(self, link_traverse(link, dense, start, end, flits, kind, wait));
    }
    fn read_issue(&mut self, node: NodeId, block: BlockAddr, t0: Cycle, inject: Cycle, txn: u64) {
        fan_out!(self, read_issue(node, block, t0, inject, txn));
    }
    fn read_retry(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {
        fan_out!(self, read_retry(node, block, t, txn));
    }
    fn read_service_arrive(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        at: ServicePoint,
        t: Cycle,
        txn: u64,
    ) {
        fan_out!(self, read_service_arrive(node, block, at, t, txn));
    }
    fn read_service_done(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {
        fan_out!(self, read_service_done(node, block, t, txn));
    }
    fn read_complete(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        class: ReadClass,
        latency: Cycle,
        t: Cycle,
        txn: u64,
    ) {
        fan_out!(self, read_complete(node, block, class, latency, t, txn));
    }
}

/// Index of a [`ReadClass`] into per-class arrays (stable order:
/// clean, home CtoC, switch CtoC).
pub fn class_index(class: ReadClass) -> usize {
    match class {
        ReadClass::CleanMemory => 0,
        ReadClass::DirtyCtoCHome => 1,
        ReadClass::DirtyCtoCSwitch => 2,
    }
}

/// Stable labels matching [`class_index`].
pub const CLASS_LABELS: [&str; 3] = ["clean_memory", "dirty_ctoc_home", "dirty_ctoc_switch"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NullProbe>(), 0);
    }

    #[test]
    fn observer_config_enabled_logic() {
        assert!(!ObserverConfig::default().enabled());
        assert!(ObserverConfig { latency_breakdown: true, ..Default::default() }.enabled());
        assert!(ObserverConfig { timeseries_window: Some(64), ..Default::default() }.enabled());
        assert!(ObserverConfig { trace: true, ..Default::default() }.enabled());
        assert!(ObserverConfig { flight: Some(1024), ..Default::default() }.enabled());
        assert!(ObserverConfig::all(128).enabled());
    }

    #[test]
    fn observer_set_builds_only_requested_observers() {
        let shape = MachineShape { nodes: 4, switches: 4 };
        let set = ObserverSet::new(
            ObserverConfig { latency_breakdown: true, ..Default::default() },
            shape,
        );
        let report = set.finish();
        assert!(report.breakdown.is_some());
        assert!(report.timeseries.is_none());
        assert!(report.trace.is_none());
        assert!(report.flight.is_none());
        assert!(!report.is_empty());
        assert!(ObsReport::default().is_empty());
    }

    #[test]
    fn switches_per_stage_recovers_the_bmin_radix() {
        let per = |nodes, switches| MachineShape { nodes, switches }.switches_per_stage();
        assert_eq!(per(16, 8), 4, "radix 4, two stages");
        assert_eq!(per(16, 32), 8, "radix 2, four stages");
        assert_eq!(per(64, 48), 16, "radix 4, three stages");
        assert_eq!(per(256, 256), 64, "radix 4, four stages");
        assert_eq!(per(4, 1), 1, "one radix-4 switch");
    }

    #[test]
    fn class_indices_cover_all_classes() {
        assert_eq!(class_index(ReadClass::CleanMemory), 0);
        assert_eq!(class_index(ReadClass::DirtyCtoCHome), 1);
        assert_eq!(class_index(ReadClass::DirtyCtoCSwitch), 2);
    }
}
