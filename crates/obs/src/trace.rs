//! Chrome trace-event (`about:tracing` / Perfetto) rendering of the event
//! log.
//!
//! Emits the JSON-array flavour of the trace-event format: one event object
//! per line, loadable directly into `chrome://tracing` or
//! [ui.perfetto.dev](https://ui.perfetto.dev). Processors are pid 0 (one
//! thread per node), home directories pid 1, switches pid 2. Read misses
//! appear as async spans (`ph: "b"`/`"e"`) keyed by a per-transaction id;
//! message sends/sinks/deliveries, switch-directory outcomes, home FSM
//! transitions and NAKs are instant events; home service occupancy is a
//! complete (`ph: "X"`) slice.
//!
//! Read-miss spans are keyed by the *transaction id* the simulator stamps
//! on every message sent on a miss's behalf, and each span is stitched to
//! its service point by Perfetto flow events (`ph: "s"`/`"t"`/`"f"`): an
//! arrow leaves the issuing processor, steps through the home directory or
//! the switch directory that sank the read, and lands back on the
//! processor at completion — one causal tree per miss, across pids.
//!
//! The document is a fold over the log's records, written in one pass
//! straight into the output's bytes: fixed fragments are source literals,
//! labels are copied verbatim (none holds a byte JSON escapes, since they
//! sit inside JSON strings), and integers go through a small decimal
//! writer, not `fmt`. The same bytes are `Trace::document()` and the
//! report's `trace_events` array. Timestamps are simulation cycles written
//! as integer `ts` values. The output is fully deterministic: two
//! identical runs produce byte-identical documents (asserted by the tier-1
//! observability tests).

use crate::recorder::{Event, Record, LOC_MEM, LOC_SWITCH};
use crate::{class_index, CLASS_LABELS};
use dresar_types::FastMap;

/// Bytes per record with headroom (FFT traces average ~128), to pre-size
/// the output so it rarely reallocates.
const BYTES_PER_RECORD: usize = 144;

/// The opening of an event object's name.
const NAME: &str = ",\n{\"name\":\"";
/// The close of an event's `args` object and of the event.
const ARGS_END: &str = "}}";

/// The Perfetto track of a record: the `loc` tag is the pid, the payload
/// (a switch's linear index) the tid.
fn track(r: &Record) -> (u64, u64) {
    let pid = r.loc >> 32;
    let tid = if pid == LOC_SWITCH { u64::from(r.linear) } else { r.loc & 0xffff_ffff };
    (pid, tid)
}

/// Appends `records` as the Chrome trace document (an array, one event
/// per line) to `out`.
pub(crate) fn render(records: &[Record], out: &mut String) {
    // SAFETY: `Doc` appends only whole `&str`s and ASCII digits, so `out`
    // stays UTF-8.
    let out = unsafe { out.as_mut_vec() };
    out.reserve(256 + records.len() * BYTES_PER_RECORD);
    let mut doc = Doc(out);
    doc.text(concat!(
        "[\n",
        r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"processors"}}"#,
        ",\n",
        r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"home directories"}}"#,
        ",\n",
        r#"{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"switches"}}"#,
    ));
    // Open read spans by (node, block), so a service arrival or completion
    // finds the span its issue began.
    let mut open_reads: FastMap<(u64, u64), u64> = FastMap::default();
    for r in records {
        let (pid, tid) = track(r);
        let at = (pid, tid, r.t);
        let (block, txn) = (r.block, r.txn);
        match r.event {
            Event::Send { kind, id, requester } => {
                doc.instant(",\n{\"name\":\"send:", kind.label(), at, block)
                    .text(",\"msg\":")
                    .num(id)
                    .text(",\"req\":")
                    .num(u64::from(requester))
                    .text(",\"txn\":")
                    .num(txn)
                    .text(ARGS_END);
            }
            Event::Sink { kind, id } => {
                doc.instant(",\n{\"name\":\"sink:", kind.label(), at, block).msg_txn(id, txn);
            }
            Event::Deliver { kind, id } => {
                doc.instant(",\n{\"name\":\"deliver:", kind.label(), at, block).msg_txn(id, txn);
            }
            Event::Sd(ev) => {
                doc.instant(NAME, ev.label(), at, block).text(ARGS_END);
            }
            Event::HomeFsm(tr) => {
                let star = |busy| if busy { "*" } else { "" };
                doc.instant(",\n{\"name\":\"fsm:", tr.req.label(), at, block)
                    .text(",\"from\":\"")
                    .text(tr.from.label())
                    .text(star(tr.from_busy))
                    .text("\",\"to\":\"")
                    .text(tr.to.label())
                    .text(star(tr.to_busy))
                    .text("\",\"nak\":")
                    .text(bool_label(tr.nak))
                    .text(",\"queued\":")
                    .text(bool_label(tr.queued))
                    .text(ARGS_END);
            }
            Event::HomeService { kind, dur } => {
                doc.text(",\n{\"name\":\"home_service\",\"ph\":\"X\"")
                    .at(at)
                    .text(",\"dur\":")
                    .num(dur)
                    .text(",\"args\":{\"block\":")
                    .num(block)
                    .text(",\"kind\":\"")
                    .text(kind.label())
                    .text("\"}}");
            }
            Event::Nak => {
                doc.instant(NAME, "nak", at, block).text(ARGS_END);
            }
            Event::ReadIssue { .. } => {
                open_reads.insert((tid, block), txn);
                doc.text(",\n{\"name\":\"read_miss\",\"cat\":\"read\",\"ph\":\"b\",\"id\":")
                    .num(txn)
                    .at(at)
                    .text(",\"args\":{\"block\":")
                    .num(block)
                    .text(",\"txn\":")
                    .num(txn)
                    .text(ARGS_END)
                    .flow("s", txn, at);
            }
            Event::ReadRetry => {
                doc.instant(NAME, "read_retry", at, block)
                    .text(",\"txn\":")
                    .num(txn)
                    .text(ARGS_END);
            }
            Event::ReadServiceArrive { node } => {
                doc.instant(NAME, "read_service", at, block)
                    .text(",\"node\":")
                    .num(u64::from(node))
                    .text(",\"at\":\"")
                    .text(if pid == LOC_MEM { "home" } else { "switch" })
                    .text("\",\"txn\":")
                    .num(txn)
                    .text(ARGS_END);
                if let Some(&id) = open_reads.get(&(u64::from(node), block)) {
                    doc.flow("t", id, at);
                }
            }
            Event::ReadServiceDone => {}
            Event::ReadComplete { class, latency } => {
                let Some(id) = open_reads.remove(&(tid, block)) else { continue };
                doc.text(",\n{\"name\":\"read_miss\",\"cat\":\"read\",\"ph\":\"e\",\"id\":")
                    .num(id)
                    .at(at)
                    .text(",\"args\":{\"block\":")
                    .num(block)
                    .text(",\"class\":\"")
                    .text(CLASS_LABELS[class_index(class)])
                    .text("\",\"latency\":")
                    .num(latency)
                    .text(",\"txn\":")
                    .num(txn)
                    .text(ARGS_END)
                    .flow("f", id, at);
            }
        }
    }
    doc.text("\n]\n");
}

fn bool_label(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// The document's bytes.
struct Doc<'a>(&'a mut Vec<u8>);

impl Doc<'_> {
    /// A fixed fragment or a label, verbatim.
    #[inline(always)]
    fn text(&mut self, text: &str) -> &mut Self {
        self.0.extend_from_slice(text.as_bytes());
        self
    }

    #[inline(always)]
    fn num(&mut self, n: u64) -> &mut Self {
        write_decimal(self.0, n);
        self
    }

    /// `,"pid":P,"tid":T,"ts":TS`.
    #[inline(always)]
    fn at(&mut self, (pid, tid, ts): (u64, u64, u64)) -> &mut Self {
        self.text(",\"pid\":").num(pid).text(",\"tid\":").num(tid).text(",\"ts\":").num(ts)
    }

    /// An instant event named `name` + `label` at `at`, up to its first
    /// argument, the block; the caller writes the rest and [`ARGS_END`].
    #[inline(always)]
    fn instant(&mut self, name: &str, label: &str, at: (u64, u64, u64), block: u64) -> &mut Self {
        self.text(name)
            .text(label)
            .text("\",\"ph\":\"i\",\"s\":\"t\"")
            .at(at)
            .text(",\"args\":{\"block\":")
            .num(block)
    }

    /// The message id and txn that close a sink or delivery.
    fn msg_txn(&mut self, id: u64, txn: u64) -> &mut Self {
        self.text(",\"msg\":").num(id).text(",\"txn\":").num(txn).text(ARGS_END)
    }

    /// One flow event (`ph` is `"s"`, `"t"` or `"f"`) at `at`, keyed by
    /// the transaction id so Perfetto draws the causal arrows.
    fn flow(&mut self, ph: &str, id: u64, at: (u64, u64, u64)) -> &mut Self {
        self.text(",\n{\"name\":\"txn\",\"cat\":\"txn\",\"ph\":\"")
            .text(ph)
            .text("\",\"id\":")
            .num(id)
            .at(at);
        if ph == "f" {
            self.text(",\"bp\":\"e\"");
        }
        self.text("}")
    }
}

/// Appends `n` in decimal, as `n.to_string()` writes it.
fn write_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

#[cfg(test)]
mod tests {
    use super::write_decimal;
    use crate::recorder::EventLog;
    use crate::{
        DirStateKind, HomeReq, HomeTransition, MachineShape, Probe, SdProbeEvent, ServicePoint,
        SwitchLoc, CLASS_LABELS,
    };
    use dresar_stats::ReadClass;
    use dresar_types::msg::{Endpoint, Message, MsgType};
    use dresar_types::{BlockAddr, JsonValue};

    fn traced() -> EventLog {
        EventLog::new(None, true, MachineShape { nodes: 16, switches: 8 })
            .expect("trace configured")
    }

    fn doc(log: EventLog) -> String {
        log.finish().trace.expect("trace configured").document()
    }

    #[test]
    fn trace_is_valid_json_with_required_keys() {
        let mut t = traced();
        t.read_issue(1, BlockAddr(5), 10, 15, 7);
        t.read_service_arrive(1, BlockAddr(5), ServicePoint::Home(0), 40, 7);
        t.home_service(0, BlockAddr(5), MsgType::ReadRequest, 40, 42, 90);
        t.read_complete(1, BlockAddr(5), ReadClass::CleanMemory, 100, 110, 7);
        let doc = doc(t);
        let parsed = JsonValue::parse(&doc).expect("trace parses as JSON");
        let events = parsed.as_arr().expect("array form");
        assert!(events.len() >= 6, "metadata + 4 events");
        for e in events {
            assert!(e.get("name").is_some(), "every event has a name");
            assert!(e.get("ph").is_some(), "every event has a phase");
            assert!(e.get("pid").is_some(), "every event has a pid");
        }
    }

    #[test]
    fn async_span_ids_pair_up() {
        let mut t = traced();
        t.read_issue(2, BlockAddr(9), 0, 5, 31);
        t.read_complete(2, BlockAddr(9), ReadClass::DirtyCtoCSwitch, 50, 50, 31);
        let doc = doc(t);
        let parsed = JsonValue::parse(&doc).unwrap();
        let events = parsed.as_arr().unwrap();
        let begin = events.iter().find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("b"));
        let end = events.iter().find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("e"));
        let (b, e) = (begin.expect("begin"), end.expect("end"));
        assert_eq!(
            b.get("id").and_then(JsonValue::as_u64),
            e.get("id").and_then(JsonValue::as_u64)
        );
        assert_eq!(b.get("id").and_then(JsonValue::as_u64), Some(31), "span id is the txn id");
        assert_eq!(
            e.get("args").and_then(|a| a.get("class")).and_then(JsonValue::as_str),
            Some("dirty_ctoc_switch")
        );
    }

    #[test]
    fn flow_events_stitch_issue_service_and_complete_by_txn() {
        let mut t = traced();
        let sw = SwitchLoc { stage: 1, index: 2, linear: 6 };
        t.read_issue(4, BlockAddr(3), 0, 2, 55);
        t.read_service_arrive(4, BlockAddr(3), ServicePoint::Switch(sw), 20, 55);
        t.read_complete(4, BlockAddr(3), ReadClass::DirtyCtoCSwitch, 44, 44, 55);
        let doc = doc(t);
        let parsed = JsonValue::parse(&doc).unwrap();
        let events = parsed.as_arr().unwrap();
        let flow_ph = |ph: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("cat").and_then(JsonValue::as_str) == Some("txn")
                        && e.get("ph").and_then(JsonValue::as_str) == Some(ph)
                })
                .unwrap_or_else(|| panic!("missing flow event ph={ph}"))
        };
        let (s, step, f) = (flow_ph("s"), flow_ph("t"), flow_ph("f"));
        for ev in [s, step, f] {
            assert_eq!(ev.get("id").and_then(JsonValue::as_u64), Some(55));
        }
        // The arrow starts on the processor, steps through the switch
        // track, and finishes back on the processor.
        assert_eq!(s.get("pid").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(step.get("pid").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(step.get("tid").and_then(JsonValue::as_u64), Some(6));
        assert_eq!(f.get("pid").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(f.get("bp").and_then(JsonValue::as_str), Some("e"));
    }

    #[test]
    fn switch_sends_share_the_track_of_the_switch_sinks() {
        // 16 nodes, radix 4: stage 1's switch 2 is linear switch 6.
        let mut t = traced();
        let sw = SwitchLoc { stage: 1, index: 2, linear: 6 };
        let read = Message::new(
            1,
            MsgType::ReadRequest,
            BlockAddr(2),
            Endpoint::Proc(0),
            Endpoint::Mem(9),
            0,
            3,
        );
        t.msg_sink(4, &read, sw);
        let ctoc = Message::new(
            2,
            MsgType::CtoCRequest,
            BlockAddr(2),
            Endpoint::Switch { stage: 1, index: 2 },
            Endpoint::Proc(5),
            0,
            3,
        );
        t.msg_send(5, &ctoc);
        let doc = doc(t);
        let parsed = JsonValue::parse(&doc).unwrap();
        let tids: Vec<u64> = parsed
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("pid").and_then(JsonValue::as_u64) == Some(2))
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .filter_map(|e| e.get("tid").and_then(JsonValue::as_u64))
            .collect();
        assert_eq!(tids, vec![6, 6], "sink and send sit on the switch's linear index");
    }

    #[test]
    fn identical_event_streams_are_byte_identical() {
        let run = || {
            let mut t = traced();
            t.msg_send(
                3,
                &Message::new(
                    1,
                    MsgType::ReadRequest,
                    BlockAddr(2),
                    Endpoint::Proc(0),
                    Endpoint::Mem(1),
                    0,
                    3,
                ),
            );
            t.nak_received(9, 0, BlockAddr(2));
            doc(t)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn complete_without_issue_is_ignored() {
        let mut t = traced();
        t.read_complete(0, BlockAddr(1), ReadClass::CleanMemory, 10, 10, 3);
        let doc = doc(t);
        assert!(!doc.contains("\"ph\":\"e\""));
    }

    #[test]
    fn decimal_writer_matches_to_string() {
        let mut values = vec![0, 1, 9, 10, u64::MAX];
        for power in (1..=19).map(|e| 10u64.pow(e)) {
            values.extend([power - 1, power, power + 1]);
        }
        for n in values {
            let mut out = Vec::new();
            write_decimal(&mut out, n);
            assert_eq!(String::from_utf8(out).unwrap(), n.to_string());
        }
    }

    const MSG_TYPES: [MsgType; 12] = [
        MsgType::ReadRequest,
        MsgType::WriteRequest,
        MsgType::WriteReply,
        MsgType::CtoCRequest,
        MsgType::CopyBack,
        MsgType::WriteBack,
        MsgType::Retry,
        MsgType::ReadReply,
        MsgType::CtoCData,
        MsgType::Invalidate,
        MsgType::InvalAck,
        MsgType::WriteBackAck,
    ];
    const SD_EVENTS: [SdProbeEvent; 10] = [
        SdProbeEvent::Insert,
        SdProbeEvent::InsertBlocked,
        SdProbeEvent::Evict,
        SdProbeEvent::ReadHit { owner: 1, requester: 2 },
        SdProbeEvent::TransientNak { requester: 3 },
        SdProbeEvent::ReaderAccumulated { requester: 4 },
        SdProbeEvent::Invalidate,
        SdProbeEvent::WriteNak { requester: 5 },
        SdProbeEvent::CopybackMarked { served: 2 },
        SdProbeEvent::WritebackServed { served: 1 },
    ];
    const HOME_REQS: [HomeReq; 5] =
        [HomeReq::Read, HomeReq::Write, HomeReq::InvalAck, HomeReq::CopyBack, HomeReq::WriteBack];
    const DIR_STATES: [DirStateKind; 4] =
        [DirStateKind::Uncached, DirStateKind::Shared, DirStateKind::Modified, DirStateKind::Owned];
    const READ_CLASSES: [ReadClass; 3] =
        [ReadClass::CleanMemory, ReadClass::DirtyCtoCHome, ReadClass::DirtyCtoCSwitch];

    /// Fails to compile when a variant is added, as a reminder to list it
    /// in the arrays above.
    #[allow(dead_code)]
    fn listed(kind: MsgType, ev: SdProbeEvent, req: HomeReq, state: DirStateKind) {
        use {DirStateKind as D, HomeReq as H, MsgType as M, SdProbeEvent as S};
        match kind {
            M::ReadRequest | M::WriteRequest | M::WriteReply | M::CtoCRequest | M::CopyBack => {}
            M::WriteBack | M::Retry | M::ReadReply | M::CtoCData | M::Invalidate => {}
            M::InvalAck | M::WriteBackAck => {}
        }
        match ev {
            S::Insert | S::InsertBlocked | S::Evict | S::ReadHit { .. } => {}
            S::TransientNak { .. } | S::ReaderAccumulated { .. } | S::Invalidate => {}
            S::WriteNak { .. } | S::CopybackMarked { .. } | S::WritebackServed { .. } => {}
        }
        match req {
            H::Read | H::Write | H::InvalAck | H::CopyBack | H::WriteBack => {}
        }
        match state {
            D::Uncached | D::Shared | D::Modified | D::Owned => {}
        }
    }

    /// A log that reaches every record kind, every message type, SD
    /// outcome, home request, directory state and read class, busy stars
    /// on both sides of a transition, and sends from all three tracks.
    fn every_event_kind() -> EventLog {
        let mut t = traced();
        let sw = SwitchLoc { stage: 1, index: 2, linear: 6 };
        let (node, block) = (3, BlockAddr(40));
        let mut clock = 0;
        let mut tick = || {
            clock += 7;
            clock
        };
        for (i, kind) in MSG_TYPES.into_iter().enumerate() {
            let i = i as u64;
            let src =
                [Endpoint::Proc(node), Endpoint::Mem(9), Endpoint::Switch { stage: 1, index: 2 }]
                    [i as usize % 3];
            let msg =
                Message::new(100 + i, kind, block, src, Endpoint::Proc(5), node, 9).with_txn(i);
            t.msg_send(tick(), &msg);
            t.msg_sink(tick(), &msg, sw);
            t.msg_deliver(tick(), &msg);
            t.home_service(9, block, kind, tick(), tick(), tick() + i);
        }
        for ev in SD_EVENTS {
            t.sd_event(tick(), sw, block, ev);
        }
        for (i, req) in HOME_REQS.into_iter().enumerate() {
            for (j, from) in DIR_STATES.into_iter().enumerate() {
                let to = DIR_STATES[(i + j) % DIR_STATES.len()];
                let odd = |k: usize| k % 2 == 1;
                let tr = HomeTransition {
                    req,
                    from,
                    from_busy: odd(i + j),
                    to,
                    to_busy: odd(i),
                    nak: odd(j),
                    queued: odd(i * j + 1),
                };
                t.home_fsm(tick(), 9, block, tr);
            }
        }
        for (i, class) in READ_CLASSES.into_iter().enumerate() {
            let (b, txn) = (BlockAddr(50 + i as u64), 70 + i as u64);
            let at = if i == 0 { ServicePoint::Home(9) } else { ServicePoint::Switch(sw) };
            t.read_issue(node, b, tick(), tick(), txn);
            t.nak_received(tick(), node, b);
            t.read_retry(node, b, tick(), txn);
            t.read_service_arrive(node, b, at, tick(), txn);
            t.read_service_done(node, b, tick(), txn);
            t.read_complete(node, b, class, 123_456_789 * i as u64, tick(), txn);
        }
        t
    }

    #[test]
    fn the_document_parses_on_every_event_kind() {
        let document = doc(every_event_kind());
        let events = JsonValue::parse(&document).expect("the document parses");
        let names: Vec<&str> = events
            .as_arr()
            .expect("array form")
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        for name in ["nak", "read_retry", "read_service", "home_service", "read_miss", "txn"] {
            assert!(names.contains(&name), "no {name} event");
        }
        for kind in MSG_TYPES {
            for prefix in ["send", "sink", "deliver"] {
                assert!(names.contains(&format!("{prefix}:{}", kind.label()).as_str()));
            }
        }
        for ev in SD_EVENTS {
            assert!(names.contains(&ev.label()));
        }
        for req in HOME_REQS {
            assert!(names.contains(&format!("fsm:{}", req.label()).as_str()));
        }
        for state in DIR_STATES {
            assert!(document.contains(&format!("\"from\":\"{}*\"", state.label())));
            assert!(document.contains(&format!("\"to\":\"{}\"", state.label())));
        }
        for label in CLASS_LABELS {
            assert!(document.contains(&format!("\"class\":\"{label}\"")), "class {label}");
        }
        for ph in ["s", "t", "f"] {
            assert!(document.contains(&format!("\"cat\":\"txn\",\"ph\":\"{ph}\"")), "flow {ph}");
        }
    }

    #[test]
    fn every_verbatim_label_needs_no_escape() {
        let mut labels: Vec<&str> = vec!["*", "true", "false", "home", "switch", "s", "t", "f"];
        labels.extend(["nak", "read_retry", "read_service"]);
        labels.extend(MSG_TYPES.map(MsgType::label));
        labels.extend(SD_EVENTS.iter().map(SdProbeEvent::label));
        labels.extend(HOME_REQS.iter().map(HomeReq::label));
        labels.extend(DIR_STATES.iter().map(DirStateKind::label));
        labels.extend(CLASS_LABELS);
        for label in labels {
            assert_eq!(JsonValue::Str(label.into()).dump(), format!("\"{label}\""), "{label:?}");
        }
    }
}
