//! Watchdog behavior under targeted message loss: a run that can no longer
//! make progress must return a structured report naming the stuck
//! transactions — never hang and never panic — while a healthy run with the
//! watchdog armed must be indistinguishable from one without it.

use dresar::system::{ExecutionReport, RunOptions, System};
use dresar_faults::{FaultPlan, WatchdogConfig, WatchdogKind};
use dresar_interconnect::Bmin;
use dresar_obs::{FlightDump, MachineShape, ObserverConfig, ObserverSet, DEFAULT_ATTRIB_WINDOW};
use dresar_types::config::{SwitchDirConfig, SystemConfig};
use dresar_types::msg::MsgType;
use dresar_types::{StreamItem, ToJson, Workload};

fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_table2();
    cfg.switch_dir = Some(SwitchDirConfig { entries: 1024, ..SwitchDirConfig::paper_default() });
    cfg
}

/// Node 0 writes one block and hits a barrier; everyone else just
/// barriers. One lost reply pins node 0's write forever.
fn one_write_workload() -> Workload {
    let mut streams = vec![vec![StreamItem::write(0x40, 1), StreamItem::barrier(0)]];
    streams.extend((1..16).map(|_| vec![StreamItem::barrier(0)]));
    Workload { name: "one-write".into(), streams }
}

fn sharing_workload() -> Workload {
    let mut streams = Vec::new();
    for p in 0..16u64 {
        let mut s = Vec::new();
        for i in 0..40u64 {
            let addr = ((p + i) % 24) * 32;
            if i % 3 == 0 {
                s.push(StreamItem::write(addr, 2));
            } else {
                s.push(StreamItem::read(addr, 2));
            }
            if i % 10 == 9 {
                s.push(StreamItem::barrier((i / 10) as u32));
            }
        }
        streams.push(s);
    }
    Workload { name: "sharing".into(), streams }
}

#[test]
fn lost_write_reply_produces_watchdog_report_not_a_hang() {
    let plan =
        FaultPlan { lose_kind: Some(MsgType::WriteReply), lose_nth: 1, ..FaultPlan::default() };
    let opts = RunOptions {
        max_cycles: 500_000_000,
        faults: Some(plan),
        watchdog: Some(WatchdogConfig { progress_budget: 50_000 }),
        verify_coherence: true,
        ..Default::default()
    };
    let r = System::new(cfg(), &one_write_workload()).run(opts);

    let report = r.watchdog.expect("losing the only WriteReply must trip the watchdog");
    assert!(
        matches!(report.kind, WatchdogKind::Livelock | WatchdogKind::QuiescenceFailure),
        "unexpected verdict: {:?}",
        report.kind
    );
    let stuck: Vec<_> = report.lineage.iter().filter(|s| s.node == 0).collect();
    assert!(
        stuck.iter().any(|s| s.kind == "write" && s.block.0 == 0x40 / 32),
        "lineage must name node 0's stuck write: {:?}",
        report.lineage
    );
    assert_eq!(r.faults.expect("plan active").lost, 1);
    // The audit must flag the wreckage rather than pretend the run is clean.
    let c = r.coherence.expect("verify_coherence was requested");
    assert!(!c.quiesced, "a tripped run is not quiescent");
}

#[test]
fn clean_run_with_watchdog_matches_unwatched_run() {
    let w = sharing_workload();
    let plain =
        System::new(cfg(), &w).run(RunOptions { max_cycles: 500_000_000, ..Default::default() });
    let watched = System::new(cfg(), &w).run(RunOptions {
        max_cycles: 500_000_000,
        watchdog: Some(WatchdogConfig::default()),
        verify_coherence: true,
        ..Default::default()
    });
    assert!(watched.watchdog.is_none(), "clean run tripped: {:?}", watched.watchdog);
    assert_eq!(watched.cycles, plain.cycles, "the watchdog must not perturb timing");
    assert_eq!(watched.reads, plain.reads);
    assert_eq!(watched.refs_executed, plain.refs_executed);
    let c = watched.coherence.expect("requested");
    assert!(c.quiesced && c.ok(), "violations: {:?}", c.violations);
}

#[test]
fn budget_overrun_reports_instead_of_panicking() {
    // Without a watchdog this workload trips the legacy max_cycles panic;
    // with one armed it must come back with a BudgetExceeded report.
    let r = System::new(cfg(), &sharing_workload()).run(RunOptions {
        max_cycles: 100, // far too small to finish
        watchdog: Some(WatchdogConfig::default()),
        ..Default::default()
    });
    let report = r.watchdog.expect("overrunning the budget must produce a report");
    assert_eq!(report.kind, WatchdogKind::BudgetExceeded);
    assert!(report.at <= 110, "tripped late: {}", report.at);
}

#[test]
fn watchdog_trip_attaches_a_deterministic_flight_dump() {
    // The default RunOptions keep the flight recorder armed; tripping the
    // watchdog must surface its dump, and replaying the identical run must
    // reproduce it byte for byte. Turning every observer on (the event log
    // then keeps every record for the trace) must not change the dump.
    let plan =
        FaultPlan { lose_kind: Some(MsgType::WriteReply), lose_nth: 1, ..FaultPlan::default() };
    let opts = RunOptions {
        max_cycles: 500_000_000,
        faults: Some(plan),
        watchdog: Some(WatchdogConfig { progress_budget: 50_000 }),
        ..Default::default()
    };
    let a = System::new(cfg(), &one_write_workload()).run(opts);
    let b = System::new(cfg(), &one_write_workload()).run(opts);
    assert!(a.watchdog.is_some(), "scenario must trip the watchdog");
    let fa = a
        .obs
        .as_ref()
        .and_then(|o| o.flight.as_ref())
        .expect("a tripped run must attach the flight dump");
    assert!(!fa.is_empty(), "the black box must hold the lead-up to the trip");
    let fb = b
        .obs
        .as_ref()
        .and_then(|o| o.flight.as_ref())
        .expect("the deterministic replay must attach a dump too");
    assert_eq!(fa.to_json().dump(), fb.to_json().dump(), "dumps must be byte-identical");
    let observers = ObserverConfig::all(DEFAULT_ATTRIB_WINDOW);
    let c = System::new(cfg(), &one_write_workload()).run(RunOptions { observers, ..opts });
    let obs = c.obs.as_ref().expect("a tripped run with every observer on reports them");
    assert!(obs.trace.is_some(), "the trace is on");
    let fc = obs.flight.as_ref().expect("the traced run must attach the flight dump too");
    assert_eq!(
        fa.to_json().dump(),
        fc.to_json().dump(),
        "the flight dump must not depend on whether the trace is on"
    );
}

#[test]
fn flight_only_run_matches_an_explicit_flight_only_observer_set() {
    // `System::run` probes a default (flight-only) run with the event
    // log's ring alone. An `ObserverSet` with only the flight recorder on
    // must see the same run: the same flight dump and report JSON, on a
    // run that drops, retransmits and loses messages.
    let plan = FaultPlan { seed: 7, drop_ppm: 100_000, max_retries: 1, ..FaultPlan::default() };
    let opts = RunOptions {
        max_cycles: 500_000_000,
        faults: Some(plan),
        watchdog: Some(WatchdogConfig::default()),
        verify_coherence: true,
        ..Default::default()
    };
    let w = sharing_workload();
    let direct = System::new(cfg(), &w).run(opts);
    let stats = direct.faults.expect("plan active");
    assert!(stats.retransmissions > 0 && stats.lost > 0, "{stats:?}");

    let switches = Bmin::new(cfg().nodes, cfg().switch.radix as usize).total_switches();
    let mut set = ObserverSet::new(opts.observers, MachineShape { nodes: cfg().nodes, switches });
    let mut probed = System::new(cfg(), &w).run_probed(opts, &mut set);
    probed.obs = Some(set.finish());

    let flight = |r: &ExecutionReport| -> FlightDump {
        r.obs.as_ref().and_then(|o| o.flight.clone()).expect("a lossy run attaches its dump")
    };
    assert!(!flight(&direct).is_empty());
    assert_eq!(flight(&direct), flight(&probed));
    assert_eq!(direct.to_json().dump(), probed.to_json().dump());
}

#[test]
fn healthy_run_keeps_the_flight_dump_out_of_the_report() {
    // The recorder runs on every default run, but a clean report must look
    // exactly as it did before the recorder existed.
    let r = System::new(cfg(), &sharing_workload()).run(RunOptions {
        max_cycles: 500_000_000,
        verify_coherence: true,
        ..Default::default()
    });
    assert!(r.coherence.as_ref().expect("requested").ok());
    assert!(r.obs.is_none(), "healthy runs must not grow an obs payload");
}

#[test]
fn moderate_drops_recover_deterministically() {
    let w = sharing_workload();
    let plan = FaultPlan { seed: 3, drop_ppm: 8_000, ..FaultPlan::default() };
    let opts = RunOptions {
        max_cycles: 500_000_000,
        faults: Some(plan),
        watchdog: Some(WatchdogConfig::default()),
        verify_coherence: true,
        ..Default::default()
    };
    let a = System::new(cfg(), &w).run(opts);
    let b = System::new(cfg(), &w).run(opts);
    assert_eq!(a.cycles, b.cycles, "same seed must replay the same schedule");
    assert_eq!(a.faults, b.faults);
    if a.watchdog.is_none() {
        let stats = a.faults.expect("plan active");
        if stats.dropped > 0 {
            assert!(stats.retransmissions > 0, "drops recovered without retries?");
        }
        assert!(a.coherence.expect("requested").ok());
    }
}
