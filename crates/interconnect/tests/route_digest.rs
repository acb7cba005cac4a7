//! Route identity: every route the constructors build, folded into one
//! FNV-1a digest and pinned. A change to how routes are represented or
//! derived must leave every switch and link of every path unchanged, so
//! the digest must not move.
//!
//! The fold reads routes only through `Route::hops`, so it states the
//! path independently of the route's internal form.

use dresar_interconnect::routes::{self, LinkId, Route};
use dresar_interconnect::{Bmin, SwitchId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const TIEBREAKS: [u64; 4] = [0, 3, 511, u64::MAX];

fn mix(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fold(h: &mut u64, r: &Route) {
    mix(h, &(r.switch_hops() as u16).to_le_bytes());
    for hop in r.hops() {
        let link = match hop.link {
            LinkId::ProcUp(p) => [0, p, 0, 0, 0],
            LinkId::ProcDown(p) => [1, p, 0, 0, 0],
            LinkId::MemUp(m) => [2, m, 0, 0, 0],
            LinkId::MemDown(m) => [3, m, 0, 0, 0],
            LinkId::Up { stage, lower, port } => {
                let [lo, hi] = lower.to_le_bytes();
                [4, stage, lo, hi, port]
            }
            LinkId::Down { stage, lower, port } => {
                let [lo, hi] = lower.to_le_bytes();
                [5, stage, lo, hi, port]
            }
        };
        mix(h, &link);
        match hop.switch {
            Some(sw) => {
                let [lo, hi] = sw.index.to_le_bytes();
                mix(h, &[1, sw.stage, lo, hi]);
            }
            None => mix(h, &[0]),
        }
    }
}

/// All of `0..n` up to 64, strided above that (the stride crosses subtree
/// boundaries, as in `tests/topology_invariant.rs::via_routes_universal`).
fn sampled(n: usize) -> impl Iterator<Item = usize> + Clone {
    let step = if n > 64 { n / 16 + 1 } else { 1 };
    (0..n).step_by(step)
}

/// Every endpoint pair's forward, backward and processor-to-processor
/// routes, then switch-originated routes from sampled switches to sampled
/// targets.
fn topology_digest(bmin: &Bmin) -> u64 {
    let mut h = FNV_OFFSET;
    for a in 0..bmin.nodes() {
        for b in 0..bmin.nodes() {
            let (a, b) = (a as u8, b as u8);
            fold(&mut h, &routes::forward(bmin, a, b));
            fold(&mut h, &routes::backward(bmin, a, b));
            for tb in TIEBREAKS {
                fold(&mut h, &routes::proc_to_proc(bmin, a, b, tb).expect("healthy topology"));
            }
        }
    }
    let per_stage = bmin.switches_per_stage();
    for linear in sampled(bmin.total_switches()) {
        let sw = SwitchId { stage: (linear / per_stage) as u8, index: (linear % per_stage) as u16 };
        for target in sampled(bmin.nodes()) {
            for tb in TIEBREAKS {
                let r = routes::from_switch_to_proc_via(bmin, sw, target as u8, tb)
                    .expect("healthy topology");
                fold(&mut h, &r);
            }
        }
    }
    h
}

#[test]
fn every_route_matches_the_pinned_digest() {
    let shapes = [(16, 4), (16, 2), (64, 4), (256, 4), (256, 2)];
    let mut h = FNV_OFFSET;
    for (n, d) in shapes {
        mix(&mut h, &topology_digest(&Bmin::new(n, d)).to_le_bytes());
    }
    assert_eq!(h, 0x67dd_ecf1_cb64_d2c3, "route digest moved: {h:#018x}");
}
