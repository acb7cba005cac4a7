//! Exhaustive tests for the switch-directory placement invariant across
//! every supported topology (DESIGN.md §3).
//!
//! The protocol's correctness rests on two facts about the BMIN:
//! 1. every switch that can hold an entry for (block homed at h, owner o)
//!    lies on the unique o <-> h path, so it can route a CtoC request down
//!    to o, and
//! 2. the owner's cleanup traffic (copyback / writeback) to h re-traverses
//!    exactly those switches, so no entry survives its owner's loss of the
//!    block.
//!
//! Node loops iterate in `usize` and cast per-use: `0..bmin.nodes() as u8`
//! is silently empty at the 256-node boundary.

use dresar_workspace::interconnect::{routes, Bmin, LinkId};
use dresar_workspace::types::NodeId;

fn topologies() -> Vec<Bmin> {
    vec![
        Bmin::new(16, 4), // the paper's 8x8 switches, 2 stages
        Bmin::new(16, 2), // the paper's 4x4 switches, 4 stages
        Bmin::new(64, 4),
        Bmin::new(8, 2),
        Bmin::new(64, 8),
        Bmin::new(128, 2), // 7-stage deep machine
        Bmin::new(256, 4), // the full NodeId range, 4 stages
    ]
}

fn node_ids(bmin: &Bmin) -> impl Iterator<Item = NodeId> {
    (0..bmin.nodes()).map(|p| p as NodeId)
}

/// Invariant 1: entries can always re-route to their owner. Exhaustive over
/// all (owner, home) pairs of every topology.
#[test]
fn entries_reach_owner() {
    for bmin in topologies() {
        for o in node_ids(&bmin) {
            for h in node_ids(&bmin) {
                for sw in bmin.path_switches(o, h) {
                    let r = routes::from_switch_to_proc_via(&bmin, sw, o, 0).expect("in range");
                    assert!(
                        r.hops().all(|hop| !matches!(hop.link, LinkId::Up { .. })),
                        "{bmin:?}: switch {sw:?} on path({o},{h}) cannot reach owner"
                    );
                }
            }
        }
    }
}

/// Invariant 2: cleanup traffic re-traverses the entry-holding switches.
#[test]
fn cleanup_covers_entries() {
    for bmin in topologies() {
        for o in node_ids(&bmin) {
            for h in node_ids(&bmin) {
                // Entries are installed along the write-reply path (h -> o),
                // which in this topology uses the same switches as (o -> h).
                let install = bmin.path_switches(o, h);
                let r = routes::forward(&bmin, o, h);
                let cleanup: Vec<_> = (0..r.switch_hops()).map(|i| r.switch(i)).collect();
                assert_eq!(install, cleanup, "{bmin:?}: o={o} h={h}");
            }
        }
    }
}

/// Every endpoint pair is routable and the hop counts are minimal:
/// requests cross exactly `stages` switches; turnaround routes cross
/// `2 * (turnaround stage) + 1`.
#[test]
fn route_lengths_minimal() {
    for bmin in topologies() {
        for a in node_ids(&bmin) {
            for b in node_ids(&bmin) {
                assert_eq!(routes::forward(&bmin, a, b).switch_hops(), bmin.stages());
                assert_eq!(routes::backward(&bmin, b, a).switch_hops(), bmin.stages());
                let p2p = routes::proc_to_proc(&bmin, a, b, 0).expect("minimal-topology route");
                let t = bmin.turnaround_stage(a, b);
                assert_eq!(p2p.switch_hops(), 2 * t + 1, "{bmin:?}: a={a} b={b}");
            }
        }
    }
}

/// The generalized switch-origin route terminates at its target for
/// every (origin switch, target) combination, including foreign ones.
/// Exhaustive over endpoints up to 64 nodes; the O(n³) sweep is strided
/// above that (the stride is coprime-ish with the radix so samples cross
/// subtree boundaries), still covering every stage of the deep machines.
#[test]
fn via_routes_universal() {
    for bmin in topologies() {
        let n = bmin.nodes();
        let step = if n > 64 { n / 16 + 1 } else { 1 };
        for o in (0..n).step_by(step) {
            for h in (0..n).step_by(step) {
                let path = bmin.path_switches(o as NodeId, h as NodeId);
                for target in (0..n).step_by(step) {
                    for tb in [0u64, 3, 511] {
                        for &sw in &path {
                            let t = target as NodeId;
                            let r = routes::from_switch_to_proc_via(&bmin, sw, t, tb)
                                .unwrap_or_else(|e| {
                                    panic!("{bmin:?}: sw={sw:?} target={target} tb={tb}: {e}")
                                });
                            assert_eq!(
                                r.link(r.switch_hops()),
                                LinkId::ProcDown(t),
                                "{bmin:?}: sw={sw:?} target={target} tb={tb}"
                            );
                        }
                    }
                }
            }
        }
    }
}
