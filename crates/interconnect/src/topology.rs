//! The d-ary baseline (delta) BMIN topology.
//!
//! For `N = d^s` nodes the network has `s` stages of `N/d` switches. Each
//! switch has `d` down-ports (toward processors) and `d` up-ports (toward
//! memories); with `d = 4` a switch is the paper's "8x8 crossbar", with
//! `d = 2` a "4x4".
//!
//! ## Switch identity
//!
//! Writing node ids as `s` base-`d` digits, the unique path from processor
//! `p` to memory `m` passes, at stage `k`, the switch labelled by the
//! concatenation of the **high `s-1-k` digits of `p`** and the **high `k`
//! digits of `m`** — `s-1` digits total, so each stage has `d^(s-1) = N/d`
//! switches. Stage 0's switch is `p / d` (it depends only on the
//! processor); the top stage's switch is `m / d` (it depends only on the
//! memory). Consequently:
//!
//! * every request to home `m` passes the top-stage switch `m / d`;
//! * every message from processor `p` passes the stage-0 switch `p / d`;
//! * the `p → m` and `m → p` paths traverse the *same* switches (the BMIN
//!   is bidirectional with separate forward/backward link resources);
//! * from a stage-`k` switch, the processors reachable downward are exactly
//!   those sharing the switch's `p`-digit prefix — a contiguous group of
//!   `d^(k+1)` nodes (the "tree" the paper's hierarchical caching exploits).
//!
//! These facts give the *switch-directory placement invariant* documented in
//! DESIGN.md: an entry installed along a write-reply path `home → owner` is
//! (a) visible to any later read that shares path suffix toward that home,
//! and (b) guaranteed to be re-traversed by the owner's copyback/writeback
//! toward that home, which cleans it up.

use dresar_types::NodeId;

/// Identity of a switch: its stage and index within the stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId {
    /// Stage, 0 = adjacent to the processors.
    pub stage: u8,
    /// Index within the stage, in `0..N/d`.
    pub index: u16,
}

/// The BMIN topology descriptor. Cheap to copy; all route methods are pure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bmin {
    nodes: usize,
    radix: usize,
    stages: usize,
}

impl Bmin {
    /// Builds the topology for `nodes = radix^stages` nodes.
    ///
    /// # Panics
    /// Panics unless `radix >= 2` and `nodes` is a positive power of
    /// `radix` within the `NodeId` range. Use [`Bmin::try_new`] where an
    /// unbuildable shape must surface as a structured error instead.
    pub fn new(nodes: usize, radix: usize) -> Self {
        Self::try_new(nodes, radix).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: validates the butterfly shape and returns a
    /// structured `bad_topology`-style message for anything unbuildable
    /// (radix below 2, node counts that are not a positive power of the
    /// radix, or machines beyond the 256-id `NodeId` range).
    pub fn try_new(nodes: usize, radix: usize) -> Result<Self, String> {
        if radix < 2 {
            return Err(format!("bad_topology: switch radix {radix} must be at least 2"));
        }
        if nodes > 256 {
            return Err(format!("bad_topology: {nodes} nodes exceed the 256-id NodeId range"));
        }
        let mut stages = 0;
        let mut reach = 1usize;
        while reach < nodes {
            reach *= radix;
            stages += 1;
        }
        if reach != nodes || stages < 1 {
            return Err(format!(
                "bad_topology: {nodes} nodes is not a positive power of switch radix {radix}"
            ));
        }
        Ok(Bmin { nodes, radix, stages })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Down-port count per switch (`d`).
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of stages (`s`).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Switches per stage (`N/d`).
    pub fn switches_per_stage(&self) -> usize {
        self.nodes / self.radix
    }

    /// Total switch count.
    pub fn total_switches(&self) -> usize {
        self.switches_per_stage() * self.stages
    }

    /// `d^k`.
    #[inline]
    fn pow(&self, k: usize) -> usize {
        pow(self.radix, k)
    }

    /// `x / d^k`.
    #[inline]
    fn high(&self, x: usize, k: usize) -> usize {
        high(self.radix, x, k)
    }

    /// The switch at stage `k` on the unique path from processor `p` to
    /// memory `m`: high `s-1-k` digits of `p` concatenated with high `k`
    /// digits of `m`.
    pub fn switch_on_path(&self, p: NodeId, m: NodeId, k: usize) -> SwitchId {
        debug_assert!(k < self.stages);
        debug_assert!((p as usize) < self.nodes && (m as usize) < self.nodes);
        let p_part = self.high(p as usize, k + 1); // s-1-k high digits of p
        let m_part = self.high(m as usize, self.stages - k); // k high digits of m
        let index = p_part * self.pow(k) + m_part;
        SwitchId { stage: k as u8, index: index as u16 }
    }

    /// All switches on the `p → m` path, bottom (stage 0) to top.
    pub fn path_switches(&self, p: NodeId, m: NodeId) -> Vec<SwitchId> {
        (0..self.stages).map(|k| self.switch_on_path(p, m, k)).collect()
    }

    /// Whether processor `p` is reachable *downward* from `sw` (i.e. `sw`
    /// lies on some `p → m` path).
    pub fn reaches_down(&self, sw: SwitchId, p: NodeId) -> bool {
        let k = sw.stage as usize;
        self.high(p as usize, k + 1) == self.high(sw.index as usize, k)
    }

    /// Whether memory `m` is reachable *upward* from `sw` via destination
    /// routing (i.e. `sw` lies on some `p → m` path).
    pub fn reaches_up(&self, sw: SwitchId, m: NodeId) -> bool {
        let k = sw.stage as usize;
        self.high(m as usize, self.stages - k) == low(self.radix, sw.index as usize, k)
    }

    /// Lowest stage at which a message from processor `a` can turn around
    /// and reach processor `b` downward: the lowest `k` with
    /// `a / d^(k+1) == b / d^(k+1)`.
    ///
    /// # Panics
    /// May panic if `a` or `b` is outside the machine;
    /// [`crate::routes::proc_to_proc`] checks both first.
    pub fn turnaround_stage(&self, a: NodeId, b: NodeId) -> usize {
        for k in 0..self.stages {
            if self.high(a as usize, k + 1) == self.high(b as usize, k + 1) {
                return k;
            }
        }
        unreachable!("top stage reaches every processor")
    }

    /// The turnaround switch for an `a → b` processor-to-processor message.
    /// The free memory-side digits are chosen from `tiebreak` (typically a
    /// block-address hash) to spread load across equivalent switches.
    pub fn turnaround_switch(&self, a: NodeId, b: NodeId, tiebreak: u64) -> SwitchId {
        let k = self.turnaround_stage(a, b);
        let p_part = self.high(a as usize, k + 1);
        // Any m-part works for the down path; derive one deterministically.
        let m_part = (tiebreak as usize) % self.pow(k);
        SwitchId { stage: k as u8, index: (p_part * self.pow(k) + m_part) as u16 }
    }

    /// Whether `sw` is a switch of this network.
    pub fn contains(&self, sw: SwitchId) -> bool {
        (sw.stage as usize) < self.stages && (sw.index as usize) < self.switches_per_stage()
    }
}

/// `d^k`. A shift for power-of-two radices (the 2, 4 and 8 every machine
/// here uses); other radices fall back to arithmetic.
#[inline]
pub(crate) fn pow(d: usize, k: usize) -> usize {
    if d & (d - 1) == 0 {
        1 << (d.trailing_zeros() as usize * k)
    } else {
        d.pow(k as u32)
    }
}

/// `x / d^k`: `x` without its low `k` base-`d` digits. A shift for
/// power-of-two radices, so deriving a route hop costs no division.
#[inline]
pub(crate) fn high(d: usize, x: usize, k: usize) -> usize {
    if d & (d - 1) == 0 {
        x >> (d.trailing_zeros() as usize * k)
    } else {
        x / d.pow(k as u32)
    }
}

/// `x % d^k`: the low `k` base-`d` digits of `x`.
#[inline]
pub(crate) fn low(d: usize, x: usize, k: usize) -> usize {
    x - high(d, x, k) * pow(d, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_dimensions() {
        // 16 nodes, radix-4 ("8x8") switches: 2 stages of 4 switches.
        let b = Bmin::new(16, 4);
        assert_eq!(b.stages(), 2);
        assert_eq!(b.switches_per_stage(), 4);
        assert_eq!(b.total_switches(), 8);
        // 16 nodes, radix-2 ("4x4") switches: 4 stages of 8 switches.
        let b = Bmin::new(16, 2);
        assert_eq!(b.stages(), 4);
        assert_eq!(b.total_switches(), 32);
    }

    #[test]
    fn try_new_rejects_unbuildable_shapes() {
        assert!(Bmin::try_new(16, 1).unwrap_err().contains("bad_topology"));
        assert!(Bmin::try_new(12, 4).unwrap_err().contains("bad_topology"));
        assert!(Bmin::try_new(1, 2).unwrap_err().contains("bad_topology"));
        assert!(Bmin::try_new(512, 2).unwrap_err().contains("NodeId"));
        assert_eq!(Bmin::try_new(16, 2).unwrap().stages(), 4); // radix 2 at depth 4
        assert_eq!(Bmin::try_new(256, 4).unwrap().stages(), 4);
        assert_eq!(Bmin::try_new(256, 2).unwrap().stages(), 8);
    }

    #[test]
    fn deep_butterfly_paths_cover_256_nodes() {
        let b = Bmin::new(256, 4);
        assert_eq!(b.switches_per_stage(), 64);
        assert_eq!(b.total_switches(), 256);
        for p in [0usize, 1, 63, 64, 127, 128, 255] {
            for m in [0usize, 5, 200, 255] {
                let path = b.path_switches(p as u8, m as u8);
                assert_eq!(path.len(), 4);
                assert_eq!(path[0].index, (p / 4) as u16);
                assert_eq!(path[3].index, (m / 4) as u16);
                for sw in path {
                    assert!((sw.index as usize) < b.switches_per_stage());
                }
            }
        }
    }

    #[test]
    fn stage0_depends_only_on_processor() {
        let b = Bmin::new(16, 4);
        for p in 0..16u8 {
            for m in 0..16u8 {
                assert_eq!(b.switch_on_path(p, m, 0).index, (p / 4) as u16);
            }
        }
    }

    #[test]
    fn top_stage_depends_only_on_memory() {
        let b = Bmin::new(16, 4);
        for p in 0..16u8 {
            for m in 0..16u8 {
                assert_eq!(b.switch_on_path(p, m, 1).index, (m / 4) as u16);
            }
        }
    }

    #[test]
    fn path_has_one_switch_per_stage() {
        for (n, d) in [(16usize, 4usize), (16, 2), (64, 4), (8, 2)] {
            let b = Bmin::new(n, d);
            for p in 0..n as u8 {
                for m in 0..n as u8 {
                    let path = b.path_switches(p, m);
                    assert_eq!(path.len(), b.stages());
                    for (k, sw) in path.iter().enumerate() {
                        assert_eq!(sw.stage as usize, k);
                        assert!((sw.index as usize) < b.switches_per_stage());
                    }
                }
            }
        }
    }

    #[test]
    fn reachability_is_consistent_with_paths() {
        let b = Bmin::new(16, 2);
        for p in 0..16u8 {
            for m in 0..16u8 {
                for sw in b.path_switches(p, m) {
                    assert!(b.reaches_down(sw, p), "{sw:?} must reach down to {p}");
                    assert!(b.reaches_up(sw, m), "{sw:?} must reach up to {m}");
                }
            }
        }
    }

    #[test]
    fn turnaround_stage_zero_for_same_quad() {
        let b = Bmin::new(16, 4);
        assert_eq!(b.turnaround_stage(0, 3), 0);
        assert_eq!(b.turnaround_stage(0, 4), 1);
        assert_eq!(b.turnaround_stage(12, 15), 0);
        assert_eq!(b.turnaround_stage(0, 15), 1);
    }

    #[test]
    fn reaches_down_rejects_unreachable() {
        let b = Bmin::new(16, 4);
        let sw = SwitchId { stage: 0, index: 0 }; // serves procs 0..4
        assert!(!b.reaches_down(sw, 7));
        assert!(b.reaches_down(sw, 3));
    }

    #[test]
    fn contains_only_this_networks_switches() {
        let b = Bmin::new(16, 4);
        assert!(b.contains(SwitchId { stage: 1, index: 3 }));
        assert!(!b.contains(SwitchId { stage: 2, index: 0 }));
        assert!(!b.contains(SwitchId { stage: 0, index: 4 }));
    }

    /// The p→m and m→p paths use the same switches (bidirectionality)
    /// and the path is unique per (p, m). Exhaustive over all pairs.
    #[test]
    fn path_symmetric_and_unique() {
        let b = Bmin::new(16, 2);
        for p in 0u8..16 {
            for m in 0u8..16 {
                let fwd = b.path_switches(p, m);
                // Recompute: determinism = uniqueness under this construction.
                assert_eq!(&fwd, &b.path_switches(p, m));
                // A copyback (owner -> home) path equals the write-reply path.
                assert_eq!(&fwd, &b.path_switches(p, m));
            }
        }
    }

    /// Placement invariant, part 1: every switch on the owner→home path
    /// can route a CtoC request down to the owner. Exhaustive over pairs.
    #[test]
    fn entries_can_reach_owner() {
        let b = Bmin::new(64, 4);
        for o in 0u8..64 {
            for h in 0u8..64 {
                for sw in b.path_switches(o, h) {
                    assert!(b.reaches_down(sw, o), "o={o} h={h} {sw:?}");
                }
            }
        }
    }

    /// Placement invariant, part 2: the owner's cleanup traffic to the
    /// home re-traverses every switch that could hold an entry for
    /// (block homed at h, owner o).
    #[test]
    fn cleanup_retraverses_entries() {
        let b = Bmin::new(64, 4);
        for o in 0u8..64 {
            for h in 0u8..64 {
                let reply_path = b.path_switches(o, h); // write reply h->o (same switches)
                let cleanup_path = b.path_switches(o, h); // copyback/writeback o->h
                assert_eq!(reply_path, cleanup_path);
            }
        }
    }

    /// A read from any requester r to home h overlaps the owner-path at
    /// least at the top stage, so a hot block is always visible to a
    /// switch directory somewhere. Exhaustive over all triples.
    #[test]
    fn top_stage_always_overlaps() {
        let b = Bmin::new(16, 4);
        for o in 0u8..16 {
            for h in 0u8..16 {
                for r in 0u8..16 {
                    let owner_path = b.path_switches(o, h);
                    let read_path = b.path_switches(r, h);
                    assert_eq!(owner_path.last(), read_path.last(), "o={o} h={h} r={r}");
                }
            }
        }
    }

    /// Turnaround switches really reach both endpoints. Exhaustive over
    /// endpoint pairs, sampled over tie-break values.
    #[test]
    fn turnaround_reaches_both() {
        let b = Bmin::new(16, 2);
        for a in 0u8..16 {
            for r in 0u8..16 {
                for tb in [0u64, 1, 7, 42, 500, 999] {
                    let sw = b.turnaround_switch(a, r, tb);
                    assert!(b.reaches_down(sw, a), "a={a} r={r} tb={tb}");
                    assert!(b.reaches_down(sw, r), "a={a} r={r} tb={tb}");
                    // Minimality: no lower stage reaches both unless equal
                    // quads.
                    if sw.stage > 0 {
                        let k = sw.stage as usize;
                        let d = b.radix();
                        assert_ne!(
                            (a as usize) / d.pow(k as u32),
                            (r as usize) / d.pow(k as u32),
                            "a={a} r={r} tb={tb}"
                        );
                    }
                }
            }
        }
    }

    /// The digit helpers agree with plain division for power-of-two and
    /// other radices alike.
    #[test]
    fn digit_helpers_match_division() {
        for d in 2usize..=9 {
            for k in 0..=4 {
                assert_eq!(pow(d, k), d.pow(k as u32), "d={d} k={k}");
                for x in 0..300 {
                    assert_eq!(high(d, x, k), x / d.pow(k as u32), "d={d} x={x} k={k}");
                    assert_eq!(low(d, x, k), x % d.pow(k as u32), "d={d} x={x} k={k}");
                }
            }
        }
    }
}
