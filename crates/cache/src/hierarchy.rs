//! Two-level inclusive cache hierarchy (the per-node L1/L2 of Table 2).
//!
//! The hierarchy enforces inclusion: every L1-resident block is also
//! L2-resident, so external coherence (invalidations, downgrades) only needs
//! the L2 tags, and an L2 eviction back-invalidates L1. Dirty L1 victims are
//! absorbed by L2; an L2 victim the home books this node as owner of surfaces
//! from [`CacheHierarchy::fill`] as a block the protocol turns into a
//! `WriteBack` message to the home node.

use crate::set_assoc::{LineState, SetAssocCache};
use dresar_types::config::CacheGeometry;
use dresar_types::BlockAddr;

/// Result of a processor-side read or write probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Serviced by L1; `latency` cycles.
    L1Hit {
        /// Access latency in cycles.
        latency: u32,
    },
    /// Serviced by L2 (and filled into L1); `latency` covers both lookups.
    L2Hit {
        /// Access latency in cycles.
        latency: u32,
    },
    /// A write found only a Shared copy: ownership must be obtained from the
    /// home directory, but no data transfer is needed once granted.
    UpgradeNeeded {
        /// Cycles spent discovering the shared copy.
        latency: u32,
    },
    /// Not resident: the protocol must fetch the block.
    Miss {
        /// Cycles spent discovering the miss (both tag lookups).
        latency: u32,
    },
}

impl AccessOutcome {
    /// Whether the access completed inside the hierarchy.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::L1Hit { .. } | AccessOutcome::L2Hit { .. })
    }

    /// The lookup latency component.
    pub fn latency(&self) -> u32 {
        match *self {
            AccessOutcome::L1Hit { latency }
            | AccessOutcome::L2Hit { latency }
            | AccessOutcome::UpgradeNeeded { latency }
            | AccessOutcome::Miss { latency } => latency,
        }
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Reads hitting L1.
    pub l1_read_hits: u64,
    /// Reads hitting L2.
    pub l2_read_hits: u64,
    /// Reads missing both levels.
    pub read_misses: u64,
    /// Writes hitting a Modified line.
    pub write_hits: u64,
    /// Writes hitting a Shared line (upgrade required).
    pub write_upgrades: u64,
    /// Writes missing both levels.
    pub write_misses: u64,
    /// Blocks installed via [`CacheHierarchy::fill`].
    pub fills: u64,
    /// L2 victims [`CacheHierarchy::fill`] surfaced as owed writebacks.
    pub writebacks: u64,
    /// Modified copies surrendered to external coherence — downgrades plus
    /// invalidations that destroyed a dirty line. Each is a block this cache
    /// served (or owed) to another node: the CtoC supply side.
    pub ctoc_serves: u64,
}

impl HierarchyStats {
    /// Accumulates another node's counters into this one.
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.l1_read_hits += other.l1_read_hits;
        self.l2_read_hits += other.l2_read_hits;
        self.read_misses += other.read_misses;
        self.write_hits += other.write_hits;
        self.write_upgrades += other.write_upgrades;
        self.write_misses += other.write_misses;
        self.fills += other.fills;
        self.writebacks += other.writebacks;
        self.ctoc_serves += other.ctoc_serves;
    }
}

/// The inclusive L1/L2 hierarchy of one node.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l1_latency: u32,
    l2_latency: u32,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Builds the hierarchy. Panics if the geometries are invalid or use
    /// different line sizes (inclusion requires a common block identity).
    pub fn new(l1: CacheGeometry, l2: CacheGeometry) -> Self {
        assert_eq!(l1.line_bytes, l2.line_bytes, "L1/L2 must share a line size");
        assert!(l2.size_bytes >= l1.size_bytes, "inclusion requires |L2| >= |L1|");
        CacheHierarchy {
            l1_latency: l1.access_cycles,
            l2_latency: l2.access_cycles,
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
            stats: HierarchyStats::default(),
        }
    }

    /// Processor read probe.
    pub fn read(&mut self, block: BlockAddr) -> AccessOutcome {
        if self.l1.access(block).is_some() {
            self.stats.l1_read_hits += 1;
            return AccessOutcome::L1Hit { latency: self.l1_latency };
        }
        if let Some(state) = self.l2.access(block) {
            self.stats.l2_read_hits += 1;
            self.fill_l1(block, state);
            return AccessOutcome::L2Hit { latency: self.l1_latency + self.l2_latency };
        }
        self.stats.read_misses += 1;
        AccessOutcome::Miss { latency: self.l1_latency + self.l2_latency }
    }

    /// Processor write probe. An Exclusive line upgrades to Modified
    /// silently (the MESI/MOESI E-state rule: the home already books this
    /// node as owner, so no directory transaction is needed) and counts as
    /// an ordinary write hit; an Owned line still needs an upgrade, because
    /// other caches hold Shared copies that must be invalidated.
    pub fn write(&mut self, block: BlockAddr) -> AccessOutcome {
        match self.l1.access(block) {
            Some(LineState::Modified) => {
                self.stats.write_hits += 1;
                return AccessOutcome::L1Hit { latency: self.l1_latency };
            }
            Some(LineState::Exclusive) => {
                self.l1.set_state(block, LineState::Modified);
                self.l2.set_state(block, LineState::Modified);
                self.stats.write_hits += 1;
                return AccessOutcome::L1Hit { latency: self.l1_latency };
            }
            Some(LineState::Shared | LineState::Owned) => {
                self.stats.write_upgrades += 1;
                return AccessOutcome::UpgradeNeeded { latency: self.l1_latency };
            }
            None => {}
        }
        match self.l2.access(block) {
            Some(LineState::Modified) => {
                self.stats.write_hits += 1;
                self.fill_l1(block, LineState::Modified);
                AccessOutcome::L2Hit { latency: self.l1_latency + self.l2_latency }
            }
            Some(LineState::Exclusive) => {
                self.l2.set_state(block, LineState::Modified);
                self.stats.write_hits += 1;
                self.fill_l1(block, LineState::Modified);
                AccessOutcome::L2Hit { latency: self.l1_latency + self.l2_latency }
            }
            Some(LineState::Shared | LineState::Owned) => {
                self.stats.write_upgrades += 1;
                AccessOutcome::UpgradeNeeded { latency: self.l1_latency + self.l2_latency }
            }
            None => {
                self.stats.write_misses += 1;
                AccessOutcome::Miss { latency: self.l1_latency + self.l2_latency }
            }
        }
    }

    /// Installs (or upgrades) a block with `state`, returning the L2 victim
    /// this node owes its home a writeback for, if the fill displaced one.
    ///
    /// The home still books this node as owner of a Modified, Owned or
    /// (MESI) clean Exclusive victim, so it must be announced: a silently
    /// dropped Exclusive line would leave the home forwarding interventions
    /// at a cache that can no longer serve them. A clean victim is dropped
    /// silently; the base protocol sends no replacement hints, matching the
    /// paper's full-map scheme where clean sharers linger in the directory
    /// vector until invalidated.
    pub fn fill(&mut self, block: BlockAddr, state: LineState) -> Option<BlockAddr> {
        self.stats.fills += 1;
        let mut writeback = None;
        if let Some((victim, victim_state)) = self.l2.insert(block, state) {
            // Inclusion: the L2 victim must leave L1 too. A dirty L1 copy of
            // the victim makes the writeback carry the freshest data; either
            // way the victim's dirtiness decides writeback vs silent drop.
            let l1_victim_state = self.l1.invalidate(victim);
            let owned_by_home = |s: LineState| s.is_dirty() || s == LineState::Exclusive;
            if owned_by_home(victim_state) || l1_victim_state.is_some_and(owned_by_home) {
                self.stats.writebacks += 1;
                writeback = Some(victim);
            }
        }
        self.fill_l1(block, state);
        writeback
    }

    /// Installs into L1, absorbing a dirty L1 victim into L2. L1 evictions
    /// never surface externally thanks to inclusion.
    fn fill_l1(&mut self, block: BlockAddr, state: LineState) {
        if let Some((victim, st)) = self.l1.insert(block, state) {
            if st.is_dirty() {
                // Write the dirty L1 victim back into L2 (must be resident
                // by inclusion).
                let present = self.l2.set_state(victim, st);
                debug_assert!(present, "inclusion violated: dirty L1 victim absent from L2");
            }
        }
    }

    /// External invalidation (on behalf of a writer elsewhere). Returns
    /// `true` if a Modified copy was destroyed (the protocol then owes the
    /// home a data transfer — handled by the caller via CtoC semantics).
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let l1 = self.l1.invalidate(block);
        let l2 = self.l2.invalidate(block);
        let supplier =
            |s: Option<LineState>| s.is_some_and(|s| s.is_dirty() || s == LineState::Exclusive);
        let was_dirty = supplier(l1) || supplier(l2);
        if was_dirty {
            self.stats.ctoc_serves += 1;
        }
        was_dirty
    }

    /// External downgrade to Shared (a cache-to-cache read intervention in
    /// the MSI/MESI protocols). Returns `true` if this cache actually held
    /// the block as its supplier.
    pub fn downgrade(&mut self, block: BlockAddr) -> bool {
        self.downgrade_to(block, LineState::Shared)
    }

    /// External downgrade to `state`: MSI read interventions make M -> S,
    /// MESI's clean E -> S, MOESI retains dirty ownership with M -> O (and
    /// an O holder serving a read stays O). Returns `true` if this cache
    /// was the block's supplier (held it Modified, Owned or Exclusive).
    pub fn downgrade_to(&mut self, block: BlockAddr, state: LineState) -> bool {
        let was_supplier =
            self.probe(block).is_some_and(|s| s.is_dirty() || s == LineState::Exclusive);
        if was_supplier {
            self.stats.ctoc_serves += 1;
        }
        if self.l1.probe(block).is_some() {
            self.l1.set_state(block, state);
        }
        if self.l2.probe(block).is_some() {
            self.l2.set_state(block, state);
        }
        was_supplier
    }

    /// Iterates every resident block with its coherence state. Inclusion
    /// makes L2 authoritative, so this walks L2 only. Order follows the
    /// array layout (deterministic for identical access histories).
    pub fn resident_blocks(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.l2.resident_blocks()
    }

    /// Authoritative state of a block (the strongest level's record wins,
    /// so L1 dirtiness beats a stale L2 Shared: M > O > E > S).
    pub fn probe(&self, block: BlockAddr) -> Option<LineState> {
        fn rank(s: LineState) -> u8 {
            match s {
                LineState::Modified => 3,
                LineState::Owned => 2,
                LineState::Exclusive => 1,
                LineState::Shared => 0,
            }
        }
        match (self.l1.probe(block), self.l2.probe(block)) {
            (None, None) => None,
            (Some(s), None) | (None, Some(s)) => Some(s),
            (Some(a), Some(b)) => Some(if rank(a) >= rank(b) { a } else { b }),
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Checks the inclusion invariant (every L1 block is in L2). O(|L1|);
    /// used by tests and debug assertions, not hot paths.
    pub fn inclusion_holds(&self) -> bool {
        self.l1.resident_blocks().all(|(b, _)| self.l2.probe(b).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::config::CacheGeometry;
    use dresar_types::rng::SmallRng;

    fn tiny() -> CacheHierarchy {
        // L1: 2 sets x 1 way; L2: 2 sets x 2 ways. 32-byte lines.
        CacheHierarchy::new(
            CacheGeometry { size_bytes: 64, line_bytes: 32, ways: 1, access_cycles: 1 },
            CacheGeometry { size_bytes: 128, line_bytes: 32, ways: 2, access_cycles: 8 },
        )
    }

    #[test]
    fn read_miss_then_fill_then_hits() {
        let mut h = tiny();
        assert_eq!(h.read(BlockAddr(0)), AccessOutcome::Miss { latency: 9 });
        assert_eq!(h.fill(BlockAddr(0), LineState::Shared), None);
        assert_eq!(h.read(BlockAddr(0)), AccessOutcome::L1Hit { latency: 1 });
        assert_eq!(h.stats().l1_read_hits, 1);
        assert_eq!(h.stats().read_misses, 1);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Shared);
        h.fill(BlockAddr(2), LineState::Shared); // evicts 0 from L1 (1-way set 0), stays in L2
        assert_eq!(h.read(BlockAddr(0)), AccessOutcome::L2Hit { latency: 9 });
        assert_eq!(h.read(BlockAddr(0)), AccessOutcome::L1Hit { latency: 1 });
    }

    #[test]
    fn write_to_shared_requires_upgrade() {
        let mut h = tiny();
        h.fill(BlockAddr(1), LineState::Shared);
        assert!(matches!(h.write(BlockAddr(1)), AccessOutcome::UpgradeNeeded { .. }));
        h.fill(BlockAddr(1), LineState::Modified);
        assert!(matches!(h.write(BlockAddr(1)), AccessOutcome::L1Hit { .. }));
        assert_eq!(h.stats().write_upgrades, 1);
        assert_eq!(h.stats().write_hits, 1);
    }

    #[test]
    fn dirty_l2_eviction_surfaces_writeback() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Modified);
        h.fill(BlockAddr(2), LineState::Shared);
        // Set 0 of L2 now has blocks 0(M) and 2(S); next fill evicts LRU = 0.
        let ev = h.fill(BlockAddr(4), LineState::Shared);
        assert_eq!(ev, Some(BlockAddr(0)));
        assert!(h.probe(BlockAddr(0)).is_none(), "back-invalidated from L1 too");
        assert!(h.inclusion_holds());
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Shared);
        h.fill(BlockAddr(2), LineState::Shared);
        let ev = h.fill(BlockAddr(4), LineState::Shared);
        assert_eq!(ev, None);
        assert!(h.probe(BlockAddr(0)).is_none(), "the clean victim left the hierarchy");
    }

    #[test]
    fn dirty_l1_victim_promotes_writeback() {
        let mut h = tiny();
        // Block 0 dirty in L1. Fill block 2 (same L1 set, different L2 way):
        // L1 evicts 0 dirty -> absorbed by L2.
        h.fill(BlockAddr(0), LineState::Modified);
        // Make L2's record of 0 Shared to prove the L1 victim re-dirties it.
        // (This can't happen in protocol flow; it isolates fill_l1.)
        h.l2.set_state(BlockAddr(0), LineState::Shared);
        h.fill(BlockAddr(2), LineState::Shared);
        assert_eq!(h.l2.probe(BlockAddr(0)), Some(LineState::Modified));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Modified);
        assert!(h.invalidate(BlockAddr(0)));
        assert!(!h.invalidate(BlockAddr(0)));
        h.fill(BlockAddr(1), LineState::Shared);
        assert!(!h.invalidate(BlockAddr(1)));
    }

    #[test]
    fn downgrade_makes_shared() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Modified);
        assert!(h.downgrade(BlockAddr(0)));
        assert_eq!(h.probe(BlockAddr(0)), Some(LineState::Shared));
        assert!(!h.downgrade(BlockAddr(0)), "second downgrade finds no Modified copy");
        assert!(!h.downgrade(BlockAddr(9)), "absent block");
    }

    #[test]
    fn fill_writeback_and_ctoc_counters() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Modified);
        h.fill(BlockAddr(2), LineState::Shared);
        h.fill(BlockAddr(4), LineState::Shared); // evicts dirty block 0
        assert_eq!(h.stats().fills, 3);
        assert_eq!(h.stats().writebacks, 1);
        // CtoC supply: downgrade of a dirty line counts, of a clean one not.
        h.fill(BlockAddr(6), LineState::Modified);
        h.downgrade(BlockAddr(6));
        h.downgrade(BlockAddr(6)); // now Shared: not a serve
        assert_eq!(h.stats().ctoc_serves, 1);
        // Invalidation destroying a dirty copy counts too.
        h.fill(BlockAddr(8), LineState::Modified);
        h.invalidate(BlockAddr(8));
        h.invalidate(BlockAddr(2)); // clean: not a serve
        assert_eq!(h.stats().ctoc_serves, 2);
    }

    #[test]
    fn exclusive_write_upgrades_silently() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Exclusive);
        assert_eq!(h.probe(BlockAddr(0)), Some(LineState::Exclusive));
        assert!(matches!(h.write(BlockAddr(0)), AccessOutcome::L1Hit { .. }));
        assert_eq!(h.probe(BlockAddr(0)), Some(LineState::Modified));
        assert_eq!(h.stats().write_hits, 1);
        assert_eq!(h.stats().write_upgrades, 0, "E upgrade is silent, not a directory upgrade");
        // The L2 record must have upgraded too, or an L1 eviction would
        // lose dirtiness.
        h.fill(BlockAddr(2), LineState::Shared);
        let ev = h.fill(BlockAddr(4), LineState::Shared);
        assert_eq!(ev, Some(BlockAddr(0)));
    }

    #[test]
    fn exclusive_upgrade_through_l2_after_l1_eviction() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Exclusive);
        h.fill(BlockAddr(2), LineState::Shared); // evicts 0 from 1-way L1 set
        assert!(matches!(h.write(BlockAddr(0)), AccessOutcome::L2Hit { .. }));
        assert_eq!(h.probe(BlockAddr(0)), Some(LineState::Modified));
    }

    #[test]
    fn exclusive_eviction_is_announced_not_dropped() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Exclusive);
        h.fill(BlockAddr(2), LineState::Shared);
        let ev = h.fill(BlockAddr(4), LineState::Shared);
        assert_eq!(ev, Some(BlockAddr(0)), "home books us as owner");
    }

    #[test]
    fn owned_lines_need_upgrades_and_keep_serving_reads() {
        let mut h = tiny();
        h.fill(BlockAddr(0), LineState::Owned);
        assert!(matches!(h.write(BlockAddr(0)), AccessOutcome::UpgradeNeeded { .. }));
        assert_eq!(h.stats().write_upgrades, 1);
        // A MOESI owner serving a read intervention stays Owned and counts
        // a CtoC serve each time.
        assert!(h.downgrade_to(BlockAddr(0), LineState::Owned));
        assert!(h.downgrade_to(BlockAddr(0), LineState::Owned));
        assert_eq!(h.probe(BlockAddr(0)), Some(LineState::Owned));
        assert_eq!(h.stats().ctoc_serves, 2);
        // Invalidating the dirty owner is a serve as well.
        assert!(h.invalidate(BlockAddr(0)));
        assert_eq!(h.stats().ctoc_serves, 3);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn mismatched_line_sizes_rejected() {
        CacheHierarchy::new(
            CacheGeometry { size_bytes: 64, line_bytes: 32, ways: 1, access_cycles: 1 },
            CacheGeometry { size_bytes: 128, line_bytes: 64, ways: 2, access_cycles: 8 },
        );
    }

    /// Inclusion holds under any interleaving of fills, invalidations,
    /// downgrades, reads and writes (seeded randomized sweep).
    #[test]
    fn inclusion_invariant_under_random_interleavings() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut h = tiny();
            for step in 0..300 {
                let op = rng.gen_range(0u8..5);
                let b = rng.gen_range(0u64..32);
                let block = BlockAddr(b);
                match op {
                    0 => {
                        h.read(block);
                    }
                    1 => {
                        h.write(block);
                    }
                    2 => {
                        h.fill(
                            block,
                            if b.is_multiple_of(2) {
                                LineState::Shared
                            } else {
                                LineState::Modified
                            },
                        );
                    }
                    3 => {
                        h.invalidate(block);
                    }
                    _ => {
                        h.downgrade(block);
                    }
                }
                assert!(h.inclusion_holds(), "seed {seed} step {step}");
            }
        }
    }

    /// After a fill the block is readable as a hit, whatever history
    /// preceded it.
    #[test]
    fn fill_guarantees_hit_after_any_history() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
            let mut h = tiny();
            for _ in 0..rng.gen_range(0usize..100) {
                h.fill(BlockAddr(rng.gen_range(0u64..32)), LineState::Shared);
            }
            let b = rng.gen_range(0u64..32);
            h.fill(BlockAddr(b), LineState::Shared);
            assert!(h.read(BlockAddr(b)).is_hit(), "seed {seed} block {b}");
        }
    }
}
