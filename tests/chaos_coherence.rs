//! Chaos suite: deterministic fault schedules against the full
//! execution-driven system, asserting the paper's central safety claim —
//! switch directories are hints, so corrupting, evicting or disabling them
//! must never corrupt coherence — plus run-to-run determinism of the fault
//! schedules themselves.
//!
//! Set `DRESAR_CHAOS_SEED=<n>` to fold one extra seed into the pinned
//! matrix (used by the CI chaos job to rotate coverage without losing
//! reproducibility).

use dresar_workspace::dresar::system::{RunOptions, System};
use dresar_workspace::faults::{FaultPlan, WatchdogConfig};
use dresar_workspace::types::config::{SwitchDirConfig, SystemConfig};
use dresar_workspace::types::rng::SmallRng;
use dresar_workspace::types::{Protocol, StreamItem, ToJson, Workload};

fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![1, 7, 42];
    if let Ok(s) = std::env::var("DRESAR_CHAOS_SEED") {
        if let Ok(n) = s.parse::<u64>() {
            seeds.push(n);
        }
    }
    seeds
}

/// Barrier-phased random workload: races are confined within phases, so
/// the quiesced coherence state is timing-independent.
fn random_workload(seed: u64, procs: usize, refs_per_proc: usize, blocks: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let phases = 4;
    let per_phase = refs_per_proc / phases;
    let mut streams = vec![Vec::new(); procs];
    for phase in 0..phases as u32 {
        for s in streams.iter_mut() {
            for _ in 0..per_phase {
                let addr = rng.gen_range(0..blocks) * 32;
                let work = rng.gen_range(0..8);
                if rng.gen_bool(0.3) {
                    s.push(StreamItem::write(addr, work));
                } else {
                    s.push(StreamItem::read(addr, work));
                }
            }
            s.push(StreamItem::barrier(phase));
        }
    }
    Workload { name: format!("chaos-{seed}"), streams }
}

/// Producer/consumer workload with a fully barrier-ordered final state:
/// every block's last writer is fixed, so the end-of-run coherence digest
/// must be identical across machines regardless of mid-run timing.
fn ordered_workload(blocks: u64) -> Workload {
    let producer: Vec<StreamItem> = (0..blocks)
        .map(|b| StreamItem::write(b * 32, 1))
        .chain([StreamItem::barrier(0)])
        .chain((0..blocks).map(|b| StreamItem::read(b * 32, 1)))
        .chain([StreamItem::barrier(1)])
        .collect();
    let consumer: Vec<StreamItem> = [StreamItem::barrier(0)]
        .into_iter()
        .chain((0..blocks).map(|b| StreamItem::read(b * 32, 1)))
        .chain([StreamItem::barrier(1)])
        .chain((0..blocks / 2).map(|b| StreamItem::write(b * 64, 1)))
        .collect();
    let mut streams = vec![producer, consumer];
    streams.extend((2..16).map(|_| vec![StreamItem::barrier(0), StreamItem::barrier(1)]));
    Workload { name: "chaos-ordered".into(), streams }
}

fn cfg(sd: Option<u32>) -> SystemConfig {
    cfg_proto(Protocol::Msi, sd)
}

fn cfg_proto(protocol: Protocol, sd: Option<u32>) -> SystemConfig {
    let mut cfg = SystemConfig::paper_table2();
    cfg.protocol = protocol;
    cfg.switch_dir =
        sd.map(|entries| SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() });
    cfg
}

fn opts(plan: FaultPlan) -> RunOptions {
    RunOptions {
        max_cycles: 500_000_000,
        faults: Some(plan),
        watchdog: Some(WatchdogConfig::default()),
        verify_coherence: true,
        ..Default::default()
    }
}

/// Fault schedules that only destroy hints (no message loss): every run
/// must reach clean quiescence with all invariants intact.
fn hint_only_schedules(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("scrub", FaultPlan { seed, scrub_period: 2_000, ..FaultPlan::default() }),
        ("storm", FaultPlan { seed, storm_at: 5_000, storm_evictions: 64, ..FaultPlan::default() }),
        ("disable", FaultPlan { seed, disable_at: 5_000, ..FaultPlan::default() }),
        (
            "disable-enable",
            FaultPlan { seed, disable_at: 4_000, enable_at: 12_000, ..FaultPlan::default() },
        ),
        (
            "combined",
            FaultPlan {
                seed,
                scrub_period: 3_000,
                storm_at: 8_000,
                storm_evictions: 32,
                disable_at: 15_000,
                enable_at: 25_000,
                ..FaultPlan::default()
            },
        ),
    ]
}

#[test]
fn hint_destroying_faults_never_break_coherence() {
    for seed in chaos_seeds() {
        let w = random_workload(seed, 16, 120, 48);
        let total = w.total_refs() as u64;
        for (name, plan) in hint_only_schedules(seed) {
            let r = System::new(cfg(Some(1024)), &w).run(opts(plan));
            assert!(
                r.watchdog.is_none(),
                "seed {seed} schedule {name}: hint-only faults must not trip the watchdog: {:?}",
                r.watchdog
            );
            assert_eq!(r.refs_executed, total, "seed {seed} schedule {name}: lost references");
            let c = r.coherence.expect("verify_coherence was requested");
            assert!(c.quiesced, "seed {seed} schedule {name}: did not quiesce");
            assert!(
                c.ok(),
                "seed {seed} schedule {name}: coherence violations: {:?}",
                c.violations
            );
        }
    }
}

/// The hint-only safety argument is protocol-independent: the same pinned
/// seed matrix (including the CI-rotated `DRESAR_CHAOS_SEED`) must reach
/// clean quiescence under MESI, with the per-protocol coherence audit
/// accepting the Exclusive holders MESI's unshared read fills create.
#[test]
fn hint_destroying_faults_never_break_coherence_under_mesi() {
    for seed in chaos_seeds() {
        let w = random_workload(seed, 16, 120, 48);
        let total = w.total_refs() as u64;
        for (name, plan) in hint_only_schedules(seed) {
            let r = System::new(cfg_proto(Protocol::Mesi, Some(1024)), &w).run(opts(plan));
            assert!(
                r.watchdog.is_none(),
                "mesi seed {seed} schedule {name}: hint-only faults must not trip the \
                 watchdog: {:?}",
                r.watchdog
            );
            assert!(
                r.sim_errors.is_empty(),
                "mesi seed {seed} schedule {name}: sim errors {:?}",
                r.sim_errors
            );
            assert_eq!(r.refs_executed, total, "mesi seed {seed} schedule {name}: lost refs");
            let c = r.coherence.expect("verify_coherence was requested");
            assert!(c.quiesced, "mesi seed {seed} schedule {name}: did not quiesce");
            assert!(
                c.ok(),
                "mesi seed {seed} schedule {name}: coherence violations: {:?}",
                c.violations
            );
        }
    }
}

#[test]
fn message_drops_recover_or_report_but_never_hang() {
    for seed in chaos_seeds() {
        let w = random_workload(seed, 16, 100, 32);
        let total = w.total_refs() as u64;
        let plan = FaultPlan { seed, drop_ppm: 20_000, ..FaultPlan::default() };
        let r = System::new(cfg(Some(1024)), &w).run(opts(plan));
        let faults = r.faults.expect("fault plan was active");
        match &r.watchdog {
            None => {
                // Every drop recovered through retransmission.
                assert_eq!(r.refs_executed, total, "seed {seed}: clean run lost references");
                let c = r.coherence.expect("verify_coherence was requested");
                assert!(c.ok(), "seed {seed}: coherence violations: {:?}", c.violations);
                if faults.dropped > 0 {
                    assert!(faults.retransmissions > 0, "seed {seed}: drops but no retries");
                }
            }
            Some(report) => {
                // A message ran out its retry budget: the watchdog must
                // name the stuck transactions instead of hanging.
                assert!(faults.lost > 0, "seed {seed}: watchdog tripped without losses");
                assert!(
                    !report.lineage.is_empty() || !report.detail.is_empty(),
                    "seed {seed}: empty watchdog report"
                );
            }
        }
    }
}

#[test]
fn same_fault_seed_is_byte_identical() {
    for seed in chaos_seeds() {
        let w = random_workload(seed, 16, 100, 32);
        let plan = FaultPlan {
            seed,
            drop_ppm: 5_000,
            scrub_period: 4_000,
            storm_at: 10_000,
            disable_at: 20_000,
            enable_at: 30_000,
            ..FaultPlan::default()
        };
        let a = System::new(cfg(Some(1024)), &w).run(opts(plan));
        let b = System::new(cfg(Some(1024)), &w).run(opts(plan));
        assert_eq!(a.cycles, b.cycles, "seed {seed}");
        assert_eq!(a.faults, b.faults, "seed {seed}: fault schedules diverged");
        assert_eq!(
            a.metrics.to_json().dump(),
            b.metrics.to_json().dump(),
            "seed {seed}: metrics must be byte-identical"
        );
        assert_eq!(
            a.to_json().dump(),
            b.to_json().dump(),
            "seed {seed}: full reports must be byte-identical"
        );
    }
}

/// Scaled machines past the old 64-node `SharerSet` ceiling: 3- and
/// 4-stage butterflies must reach clean quiescence with zero sim errors
/// (no silent sharer-id wrap anywhere) and a clean coherence audit.
#[test]
fn scaled_machines_quiesce_coherently() {
    for (nodes, radix) in [(64usize, 4u32), (128, 2), (256, 4)] {
        let mut cfg = SystemConfig::scaled(nodes, radix);
        cfg.switch_dir =
            Some(SwitchDirConfig { entries: 1024, ..SwitchDirConfig::paper_default() });
        let w = random_workload(9, nodes, 24, 96);
        let total = w.total_refs() as u64;
        let r = System::new(cfg, &w).run(opts(FaultPlan::default()));
        assert!(r.watchdog.is_none(), "{nodes}x{radix}: {:?}", r.watchdog);
        assert!(r.sim_errors.is_empty(), "{nodes}x{radix}: sim errors {:?}", r.sim_errors);
        assert_eq!(r.refs_executed, total, "{nodes}x{radix}: lost references");
        let c = r.coherence.expect("verify_coherence was requested");
        assert!(c.quiesced, "{nodes}x{radix}: did not quiesce");
        assert!(c.ok(), "{nodes}x{radix}: coherence violations: {:?}", c.violations);
    }
}

/// Hint-destroying chaos on the deepest machine: a 256-node, 4-stage BMIN
/// under scrub + eviction-storm faults must stay coherent — the hint-only
/// safety argument is size-independent.
#[test]
fn deep_machine_hint_faults_stay_coherent() {
    let mut cfg = SystemConfig::scaled(256, 4);
    cfg.switch_dir = Some(SwitchDirConfig { entries: 1024, ..SwitchDirConfig::paper_default() });
    let w = random_workload(11, 256, 16, 64);
    let total = w.total_refs() as u64;
    let plan = FaultPlan {
        seed: 11,
        scrub_period: 2_000,
        storm_at: 5_000,
        storm_evictions: 64,
        ..FaultPlan::default()
    };
    let r = System::new(cfg, &w).run(opts(plan));
    assert!(r.watchdog.is_none(), "{:?}", r.watchdog);
    assert!(r.sim_errors.is_empty(), "sim errors: {:?}", r.sim_errors);
    assert_eq!(r.refs_executed, total);
    let c = r.coherence.expect("verify_coherence was requested");
    assert!(c.ok(), "coherence violations: {:?}", c.violations);
}

#[test]
fn sd_disabled_mid_run_matches_base_machine_state() {
    let w = ordered_workload(64);
    let base_opts = RunOptions {
        max_cycles: 500_000_000,
        verify_coherence: true,
        watchdog: Some(WatchdogConfig::default()),
        ..Default::default()
    };
    let base = System::new(cfg(None), &w).run(base_opts);
    let base_c = base.coherence.clone().expect("verify_coherence was requested");
    assert!(base_c.ok(), "base machine violations: {:?}", base_c.violations);

    // Probe the SD run's length, then disable the switch directories
    // mid-flight (half-way) and again very early.
    let probe = System::new(cfg(Some(1024)), &w).run(base_opts);
    for disable_at in [probe.cycles / 2, probe.cycles / 8] {
        let plan = FaultPlan { disable_at: disable_at.max(1), ..FaultPlan::default() };
        let r = System::new(cfg(Some(1024)), &w).run(opts(plan));
        assert!(r.watchdog.is_none(), "disable@{disable_at}: {:?}", r.watchdog);
        assert_eq!(r.refs_executed, base.refs_executed, "disable@{disable_at}");
        let c = r.coherence.expect("verify_coherence was requested");
        assert!(c.ok(), "disable@{disable_at}: violations: {:?}", c.violations);
        assert_eq!(
            c.digest, base_c.digest,
            "disable@{disable_at}: degraded run must quiesce in the same \
             per-block coherence state as the base machine"
        );
    }
}

/// The SD-disable digest argument also holds under MESI: hints only decide
/// who serves a dirty read, never the quiesced state, so a MESI machine
/// whose switch directories die mid-run must end in exactly the per-block
/// coherence state of the MESI base machine (Exclusive holders included —
/// the digest tags them distinctly from Shared and Modified).
#[test]
fn mesi_sd_disabled_mid_run_matches_base_machine_state() {
    let w = ordered_workload(64);
    let base_opts = RunOptions {
        max_cycles: 500_000_000,
        verify_coherence: true,
        watchdog: Some(WatchdogConfig::default()),
        ..Default::default()
    };
    let base = System::new(cfg_proto(Protocol::Mesi, None), &w).run(base_opts);
    let base_c = base.coherence.clone().expect("verify_coherence was requested");
    assert!(base_c.ok(), "mesi base machine violations: {:?}", base_c.violations);

    let probe = System::new(cfg_proto(Protocol::Mesi, Some(1024)), &w).run(base_opts);
    let plan = FaultPlan { disable_at: (probe.cycles / 2).max(1), ..FaultPlan::default() };
    let r = System::new(cfg_proto(Protocol::Mesi, Some(1024)), &w).run(opts(plan));
    assert!(r.watchdog.is_none(), "{:?}", r.watchdog);
    assert!(r.sim_errors.is_empty(), "sim errors: {:?}", r.sim_errors);
    assert_eq!(r.refs_executed, base.refs_executed);
    let c = r.coherence.expect("verify_coherence was requested");
    assert!(c.ok(), "violations: {:?}", c.violations);
    assert_eq!(
        c.digest, base_c.digest,
        "degraded MESI run must quiesce in the same per-block coherence state as \
         the MESI base machine"
    );
}

#[test]
fn degraded_mode_stops_switch_service() {
    // Disabling from cycle 1 means the switch directories never install a
    // hint: the machine must behave like the base machine for reads.
    let w = ordered_workload(32);
    let plan = FaultPlan { disable_at: 1, ..FaultPlan::default() };
    let r = System::new(cfg(Some(1024)), &w).run(opts(plan));
    assert_eq!(r.reads.ctoc_switch, 0, "disabled switch directories served a read");
    assert!(r.coherence.expect("requested").ok());
    let base = System::new(cfg(None), &w)
        .run(RunOptions { max_cycles: 500_000_000, ..Default::default() });
    assert_eq!(r.reads.ctoc_home, base.reads.ctoc_home);
}
