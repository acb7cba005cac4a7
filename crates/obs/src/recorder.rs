//! The event log: one compact record per protocol event, rendered as the
//! flight-recorder dump and as the Chrome/Perfetto trace.
//!
//! Every hook of the coherence narrative — message sends, switch sinks,
//! deliveries, SD outcomes, home FSM transitions and service slices, NAKs
//! and read milestones — becomes one fixed-size record of at most 64
//! bytes; no hook formats or allocates beyond the append.
//!
//! * **Flight dump.** With only `flight` configured the log is a bounded
//!   ring of the last `capacity` records, cheap enough to leave armed on
//!   every run, and skips the two trace-only kinds (home FSM and service).
//!   It renders to JSON only when a run goes wrong (watchdog trip, failed
//!   audit, fault anomaly); the simulator is deterministic, so the same
//!   seed and fault plan reproduce the dump byte for byte.
//! * **Trace.** With `trace` on the log keeps every record and `finish`
//!   folds them into one trace document. The flight dump is then the last
//!   `capacity` flight-kind records, with `total` counting flight kinds
//!   only, so it is byte-identical to the ring's.
//!
//! Records capture the *coherence* narrative, not per-cycle resource
//! telemetry: "what were the last N protocol steps before the wreck".

use crate::{
    class_index, HomeTransition, MachineShape, Probe, SdProbeEvent, ServicePoint, SwitchLoc,
};
use dresar_stats::ReadClass;
use dresar_types::msg::{Endpoint, Message, MsgType};
use dresar_types::{BlockAddr, Cycle, JsonValue, NodeId, ToJson};

/// Default flight capacity: enough to cover several thousand protocol
/// steps leading up to an anomaly while keeping the ring under ~256 KiB.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// What a record describes, with the detail each rendering needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    Send { kind: MsgType, id: u64, requester: NodeId },
    Sink { kind: MsgType, id: u64 },
    Deliver { kind: MsgType, id: u64 },
    Sd(SdProbeEvent),
    Nak,
    ReadIssue { inject: Cycle },
    ReadRetry,
    ReadServiceArrive { node: NodeId },
    ReadServiceDone,
    ReadComplete { class: ReadClass, latency: Cycle },
    // Trace only: a home FSM transition, and a controller occupancy slice.
    HomeFsm(HomeTransition),
    HomeService { kind: MsgType, dur: Cycle },
}

impl Event {
    /// Whether the flight dump carries this kind (all but the trace-only
    /// home FSM and service records).
    fn is_flight(&self) -> bool {
        !matches!(self, Event::HomeFsm(_) | Event::HomeService { .. })
    }

    /// The flight dump's kind label.
    fn label(&self) -> &'static str {
        match self {
            Event::Send { .. } => "send",
            Event::Sink { .. } => "sink",
            Event::Deliver { .. } => "deliver",
            Event::Sd(_) => "sd",
            Event::Nak => "nak",
            Event::ReadIssue { .. } => "issue",
            Event::ReadRetry => "retry",
            Event::ReadServiceArrive { .. } => "svc_arrive",
            Event::ReadServiceDone => "svc_done",
            Event::ReadComplete { .. } => "complete",
            Event::HomeFsm(_) => "fsm",
            Event::HomeService { .. } => "home_service",
        }
    }

    /// The flight dump's kind-specific detail word.
    fn aux(&self) -> u64 {
        match *self {
            // The declaration order of `MsgType`: Table 1 first.
            Event::Send { kind, .. } | Event::Sink { kind, .. } | Event::Deliver { kind, .. } => {
                kind as u64
            }
            Event::Sd(ev) => sd_code(ev),
            Event::ReadIssue { inject } => inject,
            Event::ReadServiceArrive { node } => u64::from(node),
            Event::ReadComplete { class, latency } => (latency << 2) | class_index(class) as u64,
            Event::Nak
            | Event::ReadRetry
            | Event::ReadServiceDone
            | Event::HomeFsm(_)
            | Event::HomeService { .. } => 0,
        }
    }
}

/// One fixed-size log record. `loc` is the event's track, packed by
/// [`encode_endpoint`]; `linear` is the switch's [`SwitchLoc::linear`]
/// when `loc` names a switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Record {
    pub(crate) t: Cycle,
    pub(crate) loc: u64,
    pub(crate) block: u64,
    pub(crate) txn: u64,
    pub(crate) linear: u16,
    pub(crate) event: Event,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 64);

/// `loc` tag of a home directory / memory endpoint.
pub(crate) const LOC_MEM: u64 = 1;
/// `loc` tag of a switch.
pub(crate) const LOC_SWITCH: u64 = 2;

/// Packs an endpoint into one word: tag in bits 32.. (0 = proc,
/// [`LOC_MEM`], [`LOC_SWITCH`]), payload below.
fn encode_endpoint(ep: Endpoint) -> u64 {
    match ep {
        Endpoint::Proc(n) => u64::from(n),
        Endpoint::Mem(n) => (LOC_MEM << 32) | u64::from(n),
        Endpoint::Switch { stage, index } => {
            (LOC_SWITCH << 32) | (u64::from(stage) << 16) | u64::from(index)
        }
    }
}

fn encode_switch(sw: SwitchLoc) -> u64 {
    encode_endpoint(Endpoint::Switch { stage: sw.stage, index: sw.index })
}

/// Stable small code for an SD snoop outcome.
fn sd_code(ev: SdProbeEvent) -> u64 {
    match ev {
        SdProbeEvent::Insert => 0,
        SdProbeEvent::InsertBlocked => 1,
        SdProbeEvent::Evict => 2,
        SdProbeEvent::ReadHit { .. } => 3,
        SdProbeEvent::TransientNak { .. } => 4,
        SdProbeEvent::ReaderAccumulated { .. } => 5,
        SdProbeEvent::Invalidate => 6,
        SdProbeEvent::WriteNak { .. } => 7,
        SdProbeEvent::CopybackMarked { .. } => 8,
        SdProbeEvent::WritebackServed { .. } => 9,
    }
}

/// The event log: the one observer that records protocol events.
#[derive(Debug)]
pub(crate) struct EventLog {
    records: Vec<Record>,
    /// Flight dump capacity, if a dump is wanted.
    flight: Option<usize>,
    /// Keep every record (the trace is on) instead of a flight ring.
    keep_all: bool,
    /// Index the next record overwrites once the ring is full.
    head: usize,
    /// Flight-kind records ever logged (so a dump reports how many were
    /// dropped).
    total: u64,
    /// Switches per BMIN stage, to place switch-originated sends on the
    /// switch's linear index.
    switches_per_stage: usize,
}

impl EventLog {
    /// A log for a dump of the last `flight` records (clamped to >= 1)
    /// and, with `trace`, a trace document of every record. `None` when
    /// neither output is wanted.
    pub(crate) fn new(flight: Option<usize>, trace: bool, shape: MachineShape) -> Option<Self> {
        let flight = flight.map(|c| c.max(1));
        (trace || flight.is_some()).then(|| EventLog {
            records: Vec::with_capacity(if trace { 0 } else { flight.unwrap_or(0) }),
            flight,
            keep_all: trace,
            head: 0,
            total: 0,
            switches_per_stage: shape.switches_per_stage(),
        })
    }

    /// Logs a flight-kind record.
    #[inline]
    fn push(&mut self, t: Cycle, loc: u64, block: u64, txn: u64, linear: u16, event: Event) {
        let r = Record { t, loc, block, txn, linear, event };
        self.total += 1;
        let capacity = self.flight.unwrap_or(0);
        if self.keep_all || self.records.len() < capacity {
            self.records.push(r);
        } else {
            self.records[self.head] = r;
            self.head = (self.head + 1) % capacity;
        }
    }

    /// Logs a trace-only record; the flight ring skips these.
    #[inline]
    fn push_trace_only(&mut self, t: Cycle, home: NodeId, block: BlockAddr, event: Event) {
        if self.keep_all {
            let loc = encode_endpoint(Endpoint::Mem(home));
            self.records.push(Record { t, loc, block: block.0, txn: 0, linear: 0, event });
        }
    }

    /// Renders the trace document (if traced) and the flight dump (if
    /// configured).
    pub(crate) fn finish(self) -> (Option<String>, Option<FlightDump>) {
        let EventLog { mut records, flight, keep_all, head, total, .. } = self;
        let trace = keep_all.then(|| crate::trace::render(&records));
        let flight = flight.map(|capacity| {
            if keep_all {
                records = records
                    .iter()
                    .rev()
                    .filter(|r| r.event.is_flight())
                    .take(capacity)
                    .copied()
                    .collect();
                records.reverse();
            } else {
                records.rotate_left(head);
            }
            FlightDump { capacity, total, records }
        });
        (trace, flight)
    }
}

impl Probe for EventLog {
    #[inline]
    fn msg_send(&mut self, t: Cycle, msg: &Message) {
        let linear = match msg.src {
            Endpoint::Switch { stage, index } => {
                usize::from(stage) * self.switches_per_stage + usize::from(index)
            }
            Endpoint::Proc(_) | Endpoint::Mem(_) => 0,
        };
        let event = Event::Send { kind: msg.kind, id: msg.id, requester: msg.requester };
        self.push(t, encode_endpoint(msg.src), msg.block.0, msg.txn, linear as u16, event);
    }

    #[inline]
    fn msg_sink(&mut self, t: Cycle, msg: &Message, sw: SwitchLoc) {
        let event = Event::Sink { kind: msg.kind, id: msg.id };
        self.push(t, encode_switch(sw), msg.block.0, msg.txn, sw.linear, event);
    }

    #[inline]
    fn msg_deliver(&mut self, t: Cycle, msg: &Message) {
        let event = Event::Deliver { kind: msg.kind, id: msg.id };
        self.push(t, encode_endpoint(msg.dst), msg.block.0, msg.txn, 0, event);
    }

    #[inline]
    fn sd_event(&mut self, t: Cycle, sw: SwitchLoc, block: BlockAddr, ev: SdProbeEvent) {
        self.push(t, encode_switch(sw), block.0, 0, sw.linear, Event::Sd(ev));
    }

    #[inline]
    fn home_fsm(&mut self, t: Cycle, home: NodeId, block: BlockAddr, tr: HomeTransition) {
        self.push_trace_only(t, home, block, Event::HomeFsm(tr));
    }

    #[inline]
    fn home_service(
        &mut self,
        home: NodeId,
        block: BlockAddr,
        kind: MsgType,
        _arrive: Cycle,
        start: Cycle,
        done: Cycle,
    ) {
        let dur = done.saturating_sub(start);
        self.push_trace_only(start, home, block, Event::HomeService { kind, dur });
    }

    #[inline]
    fn nak_received(&mut self, t: Cycle, node: NodeId, block: BlockAddr) {
        self.push(t, u64::from(node), block.0, 0, 0, Event::Nak);
    }

    #[inline]
    fn read_issue(&mut self, node: NodeId, block: BlockAddr, t0: Cycle, inject: Cycle, txn: u64) {
        self.push(t0, u64::from(node), block.0, txn, 0, Event::ReadIssue { inject });
    }

    #[inline]
    fn read_retry(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {
        self.push(t, u64::from(node), block.0, txn, 0, Event::ReadRetry);
    }

    #[inline]
    fn read_service_arrive(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        at: ServicePoint,
        t: Cycle,
        txn: u64,
    ) {
        let (loc, linear) = match at {
            ServicePoint::Home(h) => (encode_endpoint(Endpoint::Mem(h)), 0),
            ServicePoint::Switch(sw) => (encode_switch(sw), sw.linear),
        };
        self.push(t, loc, block.0, txn, linear, Event::ReadServiceArrive { node });
    }

    #[inline]
    fn read_service_done(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {
        self.push(t, u64::from(node), block.0, txn, 0, Event::ReadServiceDone);
    }

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
        self.push(t, u64::from(node), block.0, txn, 0, Event::ReadComplete { class, latency });
    }
}

/// A finalized flight dump: the last `records.len()` of `total` logged
/// flight-kind events, oldest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightDump {
    /// Flight capacity the log ran with.
    pub capacity: usize,
    /// Events logged over the whole run (>= records kept).
    pub total: u64,
    records: Vec<Record>,
}

impl FlightDump {
    /// Number of records retained in the dump.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dump holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl ToJson for FlightDump {
    fn to_json(&self) -> JsonValue {
        // Each record serializes as a compact fixed-shape array:
        // [t, kind, loc, block, txn, aux].
        let records: Vec<JsonValue> = self
            .records
            .iter()
            .map(|r| {
                JsonValue::Arr(vec![
                    r.t.to_json(),
                    JsonValue::Str(r.event.label().to_string()),
                    r.loc.to_json(),
                    r.block.to_json(),
                    r.txn.to_json(),
                    r.event.aux().to_json(),
                ])
            })
            .collect();
        JsonValue::obj()
            .field("capacity", self.capacity as u64)
            .field("total", self.total)
            .field("dropped", self.total - self.records.len() as u64)
            .field("records", records)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirStateKind, HomeReq};

    const SHAPE: MachineShape = MachineShape { nodes: 16, switches: 8 };

    fn ring(capacity: usize) -> EventLog {
        EventLog::new(Some(capacity), false, SHAPE).expect("flight configured")
    }

    fn dump(log: EventLog) -> FlightDump {
        log.finish().1.expect("flight configured")
    }

    fn feed(r: &mut EventLog, n: u64) {
        for i in 0..n {
            r.read_issue((i % 16) as NodeId, BlockAddr(i), i * 10, i * 10 + 3, i + 1);
        }
    }

    #[test]
    fn ring_keeps_the_newest_records_after_wraparound() {
        let mut r = ring(8);
        feed(&mut r, 20);
        let dump = dump(r);
        assert_eq!(dump.len(), 8);
        assert_eq!(dump.total, 20);
        // Oldest-first: records 12..20 survive (txn 13..=20).
        let txns: Vec<u64> = dump.records.iter().map(|rec| rec.txn).collect();
        assert_eq!(txns, (13..=20).collect::<Vec<_>>());
    }

    #[test]
    fn dump_before_wraparound_keeps_everything_in_order() {
        let mut r = ring(64);
        feed(&mut r, 5);
        let dump = dump(r);
        assert_eq!(dump.len(), 5);
        assert_eq!(dump.total, 5);
        assert_eq!(dump.to_json().get("dropped").and_then(JsonValue::as_u64), Some(0));
        let txns: Vec<u64> = dump.records.iter().map(|rec| rec.txn).collect();
        assert_eq!(txns, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn identical_event_streams_dump_byte_identically() {
        let run = || {
            let mut r = ring(16);
            feed(&mut r, 40);
            r.sd_event(
                7,
                SwitchLoc { stage: 1, index: 2, linear: 6 },
                BlockAddr(9),
                SdProbeEvent::Insert,
            );
            r.nak_received(11, 3, BlockAddr(5));
            dump(r).to_json().dump()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traced_log_dumps_exactly_what_the_ring_keeps() {
        let tr = HomeTransition {
            req: HomeReq::Read,
            from: DirStateKind::Uncached,
            from_busy: false,
            to: DirStateKind::Shared,
            to_busy: false,
            nak: false,
            queued: false,
        };
        let run = |trace: bool| {
            let mut r = EventLog::new(Some(8), trace, SHAPE).expect("flight configured");
            for i in 0..12 {
                feed(&mut r, 1);
                r.home_fsm(i, 0, BlockAddr(i), tr);
                r.home_service(0, BlockAddr(i), MsgType::ReadRequest, i, i, i + 4);
            }
            dump(r).to_json().dump()
        };
        assert_eq!(run(true), run(false));
        assert!(run(false).contains("\"total\":12"));
    }

    #[test]
    fn message_codes_keep_table_1_order() {
        let aux = |kind| Event::Send { kind, id: 0, requester: 0 }.aux();
        assert_eq!(aux(MsgType::ReadRequest), 0);
        assert_eq!(aux(MsgType::Retry), 6, "the last Table 1 type");
        assert_eq!(aux(MsgType::ReadReply), 7);
        assert_eq!(aux(MsgType::WriteBackAck), 11);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = ring(0);
        feed(&mut r, 3);
        let dump = dump(r);
        assert_eq!(dump.len(), 1);
        assert_eq!(dump.total, 3);
    }

    #[test]
    fn dump_json_has_fixed_shape_records() {
        let mut r = ring(4);
        r.msg_send(
            5,
            &dresar_types::msg::Message::new(
                1,
                MsgType::ReadRequest,
                BlockAddr(2),
                Endpoint::Proc(0),
                Endpoint::Mem(3),
                0,
                5,
            )
            .with_txn(42),
        );
        let dump = dump(r);
        let json = dump.to_json();
        let recs = json.get("records").and_then(JsonValue::as_arr).expect("records array");
        assert_eq!(recs.len(), 1);
        let rec = recs[0].as_arr().expect("record is an array");
        assert_eq!(rec.len(), 6);
        assert_eq!(rec[1].as_str(), Some("send"));
        assert_eq!(rec[4].as_u64(), Some(42));
    }
}
