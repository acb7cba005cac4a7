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
//! into one pre-sized `String`. Timestamps are simulation cycles written as
//! integer `ts` values. The output is fully deterministic: two identical
//! runs produce byte-identical documents (asserted by the tier-1
//! observability tests).

use crate::recorder::{Event, Record, LOC_MEM, LOC_SWITCH};
use crate::{class_index, CLASS_LABELS};
use std::collections::HashMap;
use std::fmt::{self, Arguments, Write};

/// Rendered bytes per record with headroom (FFT traces average ~128), to
/// pre-size the document so it never reallocates.
const BYTES_PER_RECORD: usize = 144;

/// The Perfetto track of a record: the `loc` tag is the pid, the payload
/// (a switch's linear index) the tid.
fn track(r: &Record) -> (u64, u64) {
    let pid = r.loc >> 32;
    let tid = if pid == LOC_SWITCH { u64::from(r.linear) } else { r.loc & 0xffff_ffff };
    (pid, tid)
}

/// Renders `records` as one JSON document (an array, one event per line).
pub(crate) fn render(records: &[Record]) -> String {
    let mut out = String::with_capacity(256 + records.len() * BYTES_PER_RECORD);
    write_document(&mut out, records).expect("formatting into a String cannot fail");
    out
}

fn write_document(out: &mut String, records: &[Record]) -> fmt::Result {
    out.push_str(concat!(
        "[\n",
        r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"processors"}}"#,
        ",\n",
        r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"home directories"}}"#,
        ",\n",
        r#"{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"switches"}}"#,
    ));
    // Open read spans by (node, block), so a service arrival or completion
    // finds the span its issue began.
    let mut open_reads: HashMap<(u64, u64), u64> = HashMap::new();
    for r in records {
        let (pid, tid) = track(r);
        let (t, block, txn) = (r.t, r.block, r.txn);
        match r.event {
            Event::Send { kind, id, requester } => instant(
                out,
                format_args!("send:{kind:?}"),
                (pid, tid, t),
                format_args!("\"block\":{block},\"msg\":{id},\"req\":{requester},\"txn\":{txn}"),
            )?,
            Event::Sink { kind, id } => instant(
                out,
                format_args!("sink:{kind:?}"),
                (pid, tid, t),
                format_args!("\"block\":{block},\"msg\":{id},\"txn\":{txn}"),
            )?,
            Event::Deliver { kind, id } => instant(
                out,
                format_args!("deliver:{kind:?}"),
                (pid, tid, t),
                format_args!("\"block\":{block},\"msg\":{id},\"txn\":{txn}"),
            )?,
            Event::Sd(ev) => instant(
                out,
                format_args!("{}", ev.label()),
                (pid, tid, t),
                format_args!("\"block\":{block}"),
            )?,
            Event::HomeFsm(tr) => instant(
                out,
                format_args!("fsm:{}", tr.req.label()),
                (pid, tid, t),
                format_args!(
                    "\"block\":{block},\"from\":\"{}{}\",\"to\":\"{}{}\",\"nak\":{},\"queued\":{}",
                    tr.from.label(),
                    if tr.from_busy { "*" } else { "" },
                    tr.to.label(),
                    if tr.to_busy { "*" } else { "" },
                    tr.nak,
                    tr.queued
                ),
            )?,
            Event::HomeService { kind, dur } => write!(
                out,
                ",\n{{\"name\":\"home_service\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{t},\"dur\":{dur},\"args\":{{\"block\":{block},\"kind\":\"{}\"}}}}",
                kind.label()
            )?,
            Event::Nak => {
                instant(out, format_args!("nak"), (pid, tid, t), format_args!("\"block\":{block}"))?
            }
            Event::ReadIssue { .. } => {
                open_reads.insert((tid, block), txn);
                write!(
                    out,
                    ",\n{{\"name\":\"read_miss\",\"cat\":\"read\",\"ph\":\"b\",\"id\":{txn},\"pid\":{pid},\"tid\":{tid},\"ts\":{t},\"args\":{{\"block\":{block},\"txn\":{txn}}}}}"
                )?;
                flow(out, 's', txn, (pid, tid, t))?;
            }
            Event::ReadRetry => instant(
                out,
                format_args!("read_retry"),
                (pid, tid, t),
                format_args!("\"block\":{block},\"txn\":{txn}"),
            )?,
            Event::ReadServiceArrive { node } => {
                let at = if pid == LOC_MEM { "home" } else { "switch" };
                instant(
                    out,
                    format_args!("read_service"),
                    (pid, tid, t),
                    format_args!("\"block\":{block},\"node\":{node},\"at\":\"{at}\",\"txn\":{txn}"),
                )?;
                if let Some(&id) = open_reads.get(&(u64::from(node), block)) {
                    flow(out, 't', id, (pid, tid, t))?;
                }
            }
            Event::ReadServiceDone => {}
            Event::ReadComplete { class, latency } => {
                let Some(id) = open_reads.remove(&(tid, block)) else { continue };
                write!(
                    out,
                    ",\n{{\"name\":\"read_miss\",\"cat\":\"read\",\"ph\":\"e\",\"id\":{id},\"pid\":{pid},\"tid\":{tid},\"ts\":{t},\"args\":{{\"block\":{block},\"class\":\"{}\",\"latency\":{latency},\"txn\":{txn}}}}}",
                    CLASS_LABELS[class_index(class)]
                )?;
                flow(out, 'f', id, (pid, tid, t))?;
            }
        }
    }
    out.push_str("\n]\n");
    Ok(())
}

/// One instant event at `(pid, tid, ts)`.
fn instant(
    out: &mut String,
    name: Arguments<'_>,
    (pid, tid, ts): (u64, u64, u64),
    args: Arguments<'_>,
) -> fmt::Result {
    write!(
        out,
        ",\n{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}"
    )
}

/// One flow event (`ph` is `"s"`, `"t"` or `"f"`) at `(pid, tid, ts)`,
/// keyed by the transaction id so Perfetto draws the causal arrows.
fn flow(out: &mut String, ph: char, id: u64, (pid, tid, ts): (u64, u64, u64)) -> fmt::Result {
    let bind = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
    write!(
        out,
        ",\n{{\"name\":\"txn\",\"cat\":\"txn\",\"ph\":\"{ph}\",\"id\":{id},\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}{bind}}}"
    )
}

#[cfg(test)]
mod tests {
    use crate::recorder::EventLog;
    use crate::{MachineShape, Probe, ServicePoint, SwitchLoc};
    use dresar_stats::ReadClass;
    use dresar_types::msg::{Endpoint, Message, MsgType};
    use dresar_types::{BlockAddr, JsonValue};

    fn traced() -> EventLog {
        EventLog::new(None, true, MachineShape { nodes: 16, switches: 8 })
            .expect("trace configured")
    }

    fn doc(log: EventLog) -> String {
        log.finish().0.expect("trace configured")
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
}
