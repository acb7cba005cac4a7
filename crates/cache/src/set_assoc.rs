//! A set-associative cache array with coherence line states and true-LRU
//! replacement.

use dresar_types::config::CacheGeometry;
use dresar_types::BlockAddr;

/// Coherence state of a cached line. Absence from the array is the implicit
/// INVALID state. The paper's protocol (§3.2) uses only S/M; the EXCLUSIVE
/// and OWNED states exist for the MESI/MOESI members of the protocol family
/// ([`dresar_types::Protocol`]) and are never installed under MSI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Read-only copy; memory (or the owner's copyback) is up to date.
    Shared,
    /// Sole clean copy (MESI/MOESI): memory is up to date, but no other
    /// cache holds the block, so a write may upgrade to MODIFIED silently.
    Exclusive,
    /// Dirty copy shared with readers (MOESI): this cache owns the block
    /// and supplies it, but other caches may hold SHARED copies.
    Owned,
    /// Exclusive dirty copy; this cache is the owner.
    Modified,
}

impl LineState {
    /// Whether a line in this state holds data newer than memory (and so
    /// must be written back or supplied on eviction/intervention).
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: LineState,
    /// LRU stamp: larger = more recently used.
    lru: u64,
    valid: bool,
}

impl Way {
    const EMPTY: Way = Way { tag: 0, state: LineState::Shared, lru: 0, valid: false };
}

/// A single set-associative cache array.
///
/// Keys are [`BlockAddr`]s; the array derives (set, tag) internally from its
/// geometry. All operations are O(associativity).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    ways: u32,
    set_mask: u64,
    set_shift: u32,
    data: Vec<Way>,
    stamp: u64,
}

impl SetAssocCache {
    /// Builds an empty cache from a validated geometry.
    ///
    /// # Panics
    /// Panics if the geometry does not validate.
    pub fn new(geom: CacheGeometry) -> Self {
        geom.validate().expect("invalid cache geometry");
        let sets = geom.sets();
        SetAssocCache {
            ways: geom.ways,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            data: vec![Way::EMPTY; (sets * geom.ways as u64) as usize],
            stamp: 0,
        }
    }

    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, block: BlockAddr) -> u64 {
        block.0 >> self.set_shift
    }

    fn set_slice(&self, set: usize) -> &[Way] {
        let base = set * self.ways as usize;
        &self.data[base..base + self.ways as usize]
    }

    fn set_slice_mut(&mut self, set: usize) -> &mut [Way] {
        let base = set * self.ways as usize;
        &mut self.data[base..base + self.ways as usize]
    }

    /// Looks up a block without touching LRU state.
    pub fn probe(&self, block: BlockAddr) -> Option<LineState> {
        let tag = self.tag_of(block);
        self.set_slice(self.set_of(block)).iter().find(|w| w.valid && w.tag == tag).map(|w| w.state)
    }

    /// Looks up a block and, on a hit, refreshes its LRU stamp.
    pub fn access(&mut self, block: BlockAddr) -> Option<LineState> {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        self.stamp += 1;
        let stamp = self.stamp;
        self.set_slice_mut(set).iter_mut().find(|w| w.valid && w.tag == tag).map(|w| {
            w.lru = stamp;
            w.state
        })
    }

    /// Changes the state of a resident block. Returns `false` if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        if let Some(w) = self.set_slice_mut(set).iter_mut().find(|w| w.valid && w.tag == tag) {
            w.state = state;
            true
        } else {
            false
        }
    }

    /// Removes a block. Returns its state if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<LineState> {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        if let Some(w) = self.set_slice_mut(set).iter_mut().find(|w| w.valid && w.tag == tag) {
            w.valid = false;
            Some(w.state)
        } else {
            None
        }
    }

    /// Inserts a block with `state`, evicting the LRU way of a full set.
    /// Returns the evicted block and its state, if any. Inserting a block
    /// that is already resident just updates state and LRU.
    pub fn insert(&mut self, block: BlockAddr, state: LineState) -> Option<(BlockAddr, LineState)> {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        let set_shift = self.set_shift;
        self.stamp += 1;
        let stamp = self.stamp;
        let slice = self.set_slice_mut(set);

        if let Some(w) = slice.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.state = state;
            w.lru = stamp;
            return None;
        }
        // Prefer an invalid way; otherwise evict the smallest-stamp way.
        let victim_idx = match slice.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => slice
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("associativity >= 1"),
        };
        let victim = slice[victim_idx];
        slice[victim_idx] = Way { tag, state, lru: stamp, valid: true };
        if victim.valid {
            let victim_block = BlockAddr((victim.tag << set_shift) | set as u64);
            Some((victim_block, victim.state))
        } else {
            None
        }
    }

    /// Number of valid lines (diagnostic).
    pub fn occupancy(&self) -> usize {
        self.data.iter().filter(|w| w.valid).count()
    }

    /// Iterates all resident blocks (diagnostic; ordered by set then way).
    pub fn resident_blocks(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        let sets = self.set_mask + 1;
        (0..sets).flat_map(move |set| {
            self.set_slice(set as usize)
                .iter()
                .filter(|w| w.valid)
                .map(move |w| (BlockAddr((w.tag << self.set_shift) | set), w.state))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::config::CacheGeometry;
    use dresar_types::rng::SmallRng;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways of 32-byte lines.
        SetAssocCache::new(CacheGeometry {
            size_bytes: 256,
            line_bytes: 32,
            ways: 2,
            access_cycles: 1,
        })
    }

    #[test]
    fn insert_then_probe() {
        let mut c = small();
        assert!(c.probe(BlockAddr(5)).is_none());
        assert!(c.insert(BlockAddr(5), LineState::Shared).is_none());
        assert_eq!(c.probe(BlockAddr(5)), Some(LineState::Shared));
        assert_eq!(c.access(BlockAddr(5)), Some(LineState::Shared));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Blocks 0, 4, 8 map to set 0 (4 sets).
        c.insert(BlockAddr(0), LineState::Shared);
        c.insert(BlockAddr(4), LineState::Shared);
        c.access(BlockAddr(0)); // 4 is now LRU
        let evicted = c.insert(BlockAddr(8), LineState::Shared);
        assert_eq!(evicted, Some((BlockAddr(4), LineState::Shared)));
        assert!(c.probe(BlockAddr(0)).is_some());
        assert!(c.probe(BlockAddr(4)).is_none());
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = small();
        c.insert(BlockAddr(0), LineState::Shared);
        c.insert(BlockAddr(4), LineState::Shared);
        assert!(c.insert(BlockAddr(0), LineState::Modified).is_none());
        assert_eq!(c.probe(BlockAddr(0)), Some(LineState::Modified));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn invalidate_reports_state() {
        let mut c = small();
        c.insert(BlockAddr(3), LineState::Modified);
        assert_eq!(c.invalidate(BlockAddr(3)), Some(LineState::Modified));
        assert_eq!(c.invalidate(BlockAddr(3)), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn set_state_only_touches_resident_lines() {
        let mut c = small();
        assert!(!c.set_state(BlockAddr(1), LineState::Modified));
        c.insert(BlockAddr(1), LineState::Shared);
        assert!(c.set_state(BlockAddr(1), LineState::Modified));
        assert_eq!(c.probe(BlockAddr(1)), Some(LineState::Modified));
    }

    #[test]
    fn eviction_reconstructs_block_address() {
        let mut c = small();
        // Set index = block & 3. Block 0x13 -> set 3.
        c.insert(BlockAddr(0x13), LineState::Modified);
        c.insert(BlockAddr(0x23), LineState::Shared);
        let ev = c.insert(BlockAddr(0x33), LineState::Shared).expect("must evict");
        assert_eq!(ev, (BlockAddr(0x13), LineState::Modified));
    }

    #[test]
    fn resident_blocks_enumerates_everything() {
        let mut c = small();
        c.insert(BlockAddr(0), LineState::Shared);
        c.insert(BlockAddr(1), LineState::Modified);
        let mut v: Vec<_> = c.resident_blocks().collect();
        v.sort_by_key(|(b, _)| b.0);
        assert_eq!(v, vec![(BlockAddr(0), LineState::Shared), (BlockAddr(1), LineState::Modified)]);
    }

    /// Occupancy never exceeds capacity and a just-inserted block is
    /// always resident (seeded randomized sweep).
    #[test]
    fn capacity_respected_under_random_inserts() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut c = small();
            for _ in 0..200 {
                let block = BlockAddr(rng.gen_range(0u64..64));
                c.insert(block, LineState::Shared);
                assert!(c.probe(block).is_some(), "seed {seed}");
                assert!(c.occupancy() <= 8, "seed {seed}");
            }
        }
    }

    /// Within one set, the most recent `ways` distinct inserts are
    /// always resident (true-LRU property).
    #[test]
    fn true_lru_keeps_recent_distinct_tags() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x17);
            let len = rng.gen_range(1usize..100);
            let tags: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..16)).collect();
            let mut c = small();
            for window_end in 1..=tags.len() {
                let t = tags[window_end - 1];
                c.insert(BlockAddr(t * 4), LineState::Shared); // all map to set 0
                                                               // The last two *distinct* tags must be resident.
                let mut seen = Vec::new();
                for &u in tags[..window_end].iter().rev() {
                    if !seen.contains(&u) {
                        seen.push(u);
                    }
                    if seen.len() == 2 {
                        break;
                    }
                }
                for &u in &seen {
                    assert!(c.probe(BlockAddr(u * 4)).is_some(), "seed {seed}: tag {u} missing");
                }
            }
        }
    }
}
