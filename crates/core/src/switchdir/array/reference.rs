//! The reference model for [`super::SdArray`]'s differential tests: the
//! earlier 56-byte layout, where every way carried its own first requester
//! and sharer set and a `u64` LRU stamp that never wraps. Its logic is kept
//! as it was; only names and doc comments changed.

use super::{SdEntryView, SdState};
use dresar_types::config::SwitchDirConfig;
use dresar_types::{BlockAddr, NodeId, SharerSet};

#[derive(Debug, Clone, Copy)]
struct Way {
    valid: bool,
    tag: u64,
    state: SdState,
    owner: NodeId,
    first_requester: NodeId,
    sharers: SharerSet,
    lru: u64,
}

impl Way {
    const EMPTY: Way = Way {
        valid: false,
        tag: 0,
        state: SdState::Modified,
        owner: 0,
        first_requester: 0,
        sharers: SharerSet::EMPTY,
        lru: 0,
    };
}

#[derive(Debug, Clone)]
pub(super) struct RefArray {
    ways: usize,
    set_mask: u64,
    set_shift: u32,
    data: Vec<Way>,
    stamp: u64,
    transients: usize,
    valid: usize,
    last_evicted: Option<(BlockAddr, SdState)>,
    pending_limit: usize,
}

impl RefArray {
    pub(super) fn new(cfg: SwitchDirConfig) -> Self {
        let sets = (cfg.entries / cfg.ways) as u64;
        RefArray {
            ways: cfg.ways as usize,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            data: vec![Way::EMPTY; cfg.entries as usize],
            stamp: 0,
            transients: 0,
            valid: 0,
            last_evicted: None,
            pending_limit: cfg.pending_buffer_entries.max(1) as usize,
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 & self.set_mask) as usize
    }

    fn tag_of(&self, block: BlockAddr) -> u64 {
        block.0 >> self.set_shift
    }

    fn find(&self, block: BlockAddr) -> Option<usize> {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.ways;
        (base..base + self.ways).find(|&i| self.data[i].valid && self.data[i].tag == tag)
    }

    fn view(w: &Way) -> SdEntryView {
        SdEntryView {
            state: w.state,
            owner: w.owner,
            first_requester: w.first_requester,
            sharers: w.sharers,
        }
    }

    pub(super) fn peek(&self, block: BlockAddr) -> Option<SdEntryView> {
        self.find(block).map(|i| Self::view(&self.data[i]))
    }

    pub(super) fn insert_modified(&mut self, block: BlockAddr, owner: NodeId) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(i) = self.find(block) {
            let w = &mut self.data[i];
            if w.state == SdState::Transient {
                return false;
            }
            w.owner = owner;
            w.first_requester = owner;
            w.sharers = SharerSet::EMPTY;
            w.lru = stamp;
            return true;
        }
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.ways;
        let victim = (base..base + self.ways)
            .filter(|&i| !self.data[i].valid || self.data[i].state != SdState::Transient)
            .min_by_key(|&i| if self.data[i].valid { (1, self.data[i].lru) } else { (0, 0) });
        match victim {
            Some(i) => {
                if self.data[i].valid {
                    let v = &self.data[i];
                    self.last_evicted = Some((
                        BlockAddr((v.tag << self.set_shift) | (i / self.ways) as u64),
                        v.state,
                    ));
                } else {
                    self.valid += 1;
                }
                self.data[i] = Way {
                    valid: true,
                    tag,
                    state: SdState::Modified,
                    owner,
                    first_requester: owner,
                    sharers: SharerSet::EMPTY,
                    lru: stamp,
                };
                true
            }
            None => false,
        }
    }

    pub(super) fn make_transient(&mut self, block: BlockAddr, requester: NodeId) -> bool {
        if self.transients >= self.pending_limit {
            return false;
        }
        if let Some(i) = self.find(block) {
            let w = &mut self.data[i];
            if w.state == SdState::Transient {
                return false;
            }
            w.state = SdState::Transient;
            w.first_requester = requester;
            w.sharers = SharerSet::singleton(requester);
            self.stamp += 1;
            w.lru = self.stamp;
            self.transients += 1;
            true
        } else {
            false
        }
    }

    pub(super) fn add_sharer(&mut self, block: BlockAddr, requester: NodeId) -> bool {
        if let Some(i) = self.find(block) {
            let w = &mut self.data[i];
            if w.state == SdState::Transient {
                w.sharers.insert(requester);
                return true;
            }
        }
        false
    }

    pub(super) fn invalidate(&mut self, block: BlockAddr) -> bool {
        if let Some(i) = self.find(block) {
            if self.data[i].state == SdState::Transient {
                self.transients -= 1;
            }
            self.data[i].valid = false;
            self.valid -= 1;
            true
        } else {
            false
        }
    }

    pub(super) fn occupancy(&self) -> usize {
        self.valid
    }

    pub(super) fn take_last_evicted(&mut self) -> Option<(BlockAddr, SdState)> {
        self.last_evicted.take()
    }

    pub(super) fn transient_count(&self) -> usize {
        self.transients
    }

    fn block_of(&self, i: usize) -> BlockAddr {
        BlockAddr((self.data[i].tag << self.set_shift) | (i / self.ways) as u64)
    }

    pub(super) fn entries(&self) -> impl Iterator<Item = (BlockAddr, SdEntryView)> + '_ {
        (0..self.data.len())
            .filter(|&i| self.data[i].valid)
            .map(|i| (self.block_of(i), Self::view(&self.data[i])))
    }

    pub(super) fn scrub_one(&mut self, nonce: u64) -> Option<BlockAddr> {
        let modified: Vec<usize> = (0..self.data.len())
            .filter(|&i| self.data[i].valid && self.data[i].state == SdState::Modified)
            .collect();
        if modified.is_empty() {
            return None;
        }
        let i = modified[(nonce % modified.len() as u64) as usize];
        let block = self.block_of(i);
        self.data[i].valid = false;
        self.valid -= 1;
        Some(block)
    }

    pub(super) fn force_evict(&mut self, n: u32, nonce: u64) -> u32 {
        if self.data.is_empty() || n == 0 {
            return 0;
        }
        let len = self.data.len();
        let start = (nonce % len as u64) as usize;
        let mut dropped = 0u32;
        for off in 0..len {
            if dropped >= n {
                break;
            }
            let i = (start + off) % len;
            if self.data[i].valid && self.data[i].state == SdState::Modified {
                self.data[i].valid = false;
                self.valid -= 1;
                dropped += 1;
            }
        }
        dropped
    }

    pub(super) fn drop_modified(&mut self) -> u32 {
        let mut dropped = 0u32;
        for i in 0..self.data.len() {
            if self.data[i].valid && self.data[i].state == SdState::Modified {
                self.data[i].valid = false;
                self.valid -= 1;
                dropped += 1;
            }
        }
        dropped
    }
}
