//! The reference model for [`super::SetAssocCache`]'s differential tests:
//! the earlier 24-byte layout, with a `valid` flag beside the state and a
//! `u64` LRU stamp that never wraps. Its logic is kept as it was; only
//! names and doc comments changed.

use super::LineState;
use dresar_types::config::CacheGeometry;
use dresar_types::BlockAddr;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: LineState,
    lru: u64,
    valid: bool,
}

impl Way {
    const EMPTY: Way = Way { tag: 0, state: LineState::Shared, lru: 0, valid: false };
}

#[derive(Debug, Clone)]
pub(super) struct RefCache {
    ways: u32,
    set_mask: u64,
    set_shift: u32,
    data: Vec<Way>,
    stamp: u64,
}

impl RefCache {
    pub(super) fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        RefCache {
            ways: geom.ways,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            data: vec![Way::EMPTY; (sets * geom.ways as u64) as usize],
            stamp: 0,
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 & self.set_mask) as usize
    }

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

    pub(super) fn probe(&self, block: BlockAddr) -> Option<LineState> {
        let tag = self.tag_of(block);
        self.set_slice(self.set_of(block)).iter().find(|w| w.valid && w.tag == tag).map(|w| w.state)
    }

    pub(super) fn access(&mut self, block: BlockAddr) -> Option<LineState> {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        self.stamp += 1;
        let stamp = self.stamp;
        self.set_slice_mut(set).iter_mut().find(|w| w.valid && w.tag == tag).map(|w| {
            w.lru = stamp;
            w.state
        })
    }

    pub(super) fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        if let Some(w) = self.set_slice_mut(set).iter_mut().find(|w| w.valid && w.tag == tag) {
            w.state = state;
            true
        } else {
            false
        }
    }

    pub(super) fn invalidate(&mut self, block: BlockAddr) -> Option<LineState> {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        if let Some(w) = self.set_slice_mut(set).iter_mut().find(|w| w.valid && w.tag == tag) {
            w.valid = false;
            Some(w.state)
        } else {
            None
        }
    }

    pub(super) fn insert(
        &mut self,
        block: BlockAddr,
        state: LineState,
    ) -> Option<(BlockAddr, LineState)> {
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

    pub(super) fn occupancy(&self) -> usize {
        self.data.iter().filter(|w| w.valid).count()
    }

    pub(super) fn resident_blocks(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        let sets = self.set_mask + 1;
        (0..sets).flat_map(move |set| {
            self.set_slice(set as usize)
                .iter()
                .filter(|w| w.valid)
                .map(move |w| (BlockAddr((w.tag << self.set_shift) | set), w.state))
        })
    }
}
