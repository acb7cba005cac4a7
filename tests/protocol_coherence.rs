//! Cross-crate protocol stress tests: random workloads through the full
//! execution-driven system, with and without switch directories, checking
//! end-to-end coherence properties that no single crate can check alone.

use dresar_workspace::dresar::system::{RunOptions, System};
use dresar_workspace::types::config::{SwitchDirConfig, SystemConfig, TransientReadPolicy};
use dresar_workspace::types::rng::SmallRng;
use dresar_workspace::types::{StreamItem, Workload};

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
    Workload { name: format!("random-{seed}"), streams }
}

fn cfg(sd: Option<u32>) -> SystemConfig {
    let mut cfg = SystemConfig::paper_table2();
    cfg.switch_dir =
        sd.map(|entries| SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() });
    cfg
}

fn opts() -> RunOptions {
    RunOptions { max_cycles: 500_000_000, ..Default::default() }
}

#[test]
fn random_workloads_complete_on_base_and_switchdir_machines() {
    for seed in 0..6u64 {
        let w = random_workload(seed, 16, 120, 64);
        let total = w.total_refs() as u64;
        let base = System::new(cfg(None), &w).run(opts());
        assert_eq!(base.refs_executed, total, "base lost references (seed {seed})");
        for entries in [256u32, 1024] {
            let r = System::new(cfg(Some(entries)), &w).run(opts());
            assert_eq!(r.refs_executed, total, "sd-{entries} lost references (seed {seed})");
        }
    }
}

#[test]
fn switch_directory_conserves_read_service() {
    // Every dirty read is served exactly once — by home or by a switch —
    // and enabling switch directories must not change how many reads the
    // workload performs, only who serves them.
    for seed in 10..16u64 {
        let w = random_workload(seed, 16, 150, 32);
        let base = System::new(cfg(None), &w).run(opts());
        let with = System::new(cfg(Some(1024)), &w).run(opts());
        assert_eq!(base.reads.ctoc_switch, 0);
        assert!(with.reads.total() > 0);
        assert_eq!(
            base.refs_executed, with.refs_executed,
            "same workload must execute the same references (seed {seed})"
        );
        // The switch machine must actually divert some transfers on these
        // write-heavy random mixes.
        if base.reads.ctoc_home > 20 {
            assert!(
                with.reads.ctoc_switch > 0,
                "no switch service despite {} home CtoCs (seed {seed})",
                base.reads.ctoc_home
            );
        }
    }
}

#[test]
fn marked_completions_keep_home_directory_exact() {
    // Indirect exactness check: with switch directories, later writes must
    // invalidate every reader that was served by a switch. If the home
    // vector lost sharers, the total invalidations would drop below the
    // base machine's for the same workload.
    for seed in 20..24u64 {
        let w = random_workload(seed, 16, 150, 16); // hot: heavy sharing
        let base = System::new(cfg(None), &w).run(opts());
        let with = System::new(cfg(Some(2048)), &w).run(opts());
        if with.sd.read_hits > 10 {
            assert!(with.dir.marked_completions > 0, "seed {seed}: no marked completions");
            // Sharers gained via switches must still get invalidated:
            // allow slack for timing divergence but catch gross loss.
            assert!(
                with.dir.invals_sent * 2 >= base.dir.invals_sent,
                "seed {seed}: invalidations collapsed ({} vs {})",
                with.dir.invals_sent,
                base.dir.invals_sent
            );
        }
    }
}

#[test]
fn runs_are_reproducible() {
    let w = random_workload(99, 16, 200, 48);
    let a = System::new(cfg(Some(1024)), &w).run(opts());
    let b = System::new(cfg(Some(1024)), &w).run(opts());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.reads, b.reads);
    assert_eq!(a.network_hops, b.network_hops);
    assert_eq!(a.writebacks, b.writebacks);
}

#[test]
fn accumulate_policy_also_coherent() {
    for seed in 30..33u64 {
        let w = random_workload(seed, 16, 120, 24);
        let total = w.total_refs() as u64;
        let sd = SwitchDirConfig {
            transient_policy: TransientReadPolicy::Accumulate,
            ..SwitchDirConfig::paper_default()
        };
        let r = System::new(SystemConfig { switch_dir: Some(sd), ..cfg(None) }, &w).run(opts());
        assert_eq!(r.refs_executed, total, "accumulate policy lost refs (seed {seed})");
    }
}

#[test]
fn radix2_four_stage_machine_works() {
    let mut c = cfg(Some(512));
    c.switch.radix = 2; // 4x4 switches, 4 stages, 32 switch directories
    for seed in 40..43u64 {
        let w = random_workload(seed, 16, 100, 32);
        let r = System::new(c, &w).run(opts());
        assert_eq!(r.refs_executed, w.total_refs() as u64);
    }
}
