//! The set-associative switch-directory entry array (paper §4.2).
//!
//! Entry layout follows the paper: for a 16-processor machine an entry is
//! ~10 bits of payload — owner pid, first requester pid, two state bits —
//! plus the tag and, for the Accumulate ablation, the sharer bit vector.
//! Replacement is LRU with two refinements the protocol requires:
//!
//! * **TRANSIENT entries are pinned**: a sunk read depends on the entry
//!   surviving until the owner's copyback/writeback passes, so TRANSIENT
//!   ways are never victims. MODIFIED entries are pure hints and always
//!   safe to drop.
//! * A **pending-buffer bound** caps the number of simultaneous TRANSIENT
//!   entries per switch (§4.3's small 8–16 entry buffer for 8x8 switches);
//!   when full, new read hits fall through to the home path.

use dresar_types::config::SwitchDirConfig;
use dresar_types::{BlockAddr, NodeId, SharerSet};

/// State of a switch-directory entry (Figure 4a; INVALID = absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdState {
    /// The recorded owner holds the block dirty.
    Modified,
    /// This switch sank a read and awaits the owner's copyback/writeback.
    Transient,
}

/// Read-only view of an entry, for the FSM and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdEntryView {
    /// Entry state.
    pub state: SdState,
    /// Recorded owner pid.
    pub owner: NodeId,
    /// First requester (receives the owner's direct CtoC data).
    pub first_requester: NodeId,
    /// All requesters this switch has served or queued (bit vector).
    pub sharers: SharerSet,
}

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

/// The entry array.
#[derive(Debug, Clone)]
pub struct SdArray {
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

impl SdArray {
    /// Builds an array from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration does not validate.
    pub fn new(cfg: SwitchDirConfig) -> Self {
        cfg.validate().expect("invalid switch-directory config");
        let sets = (cfg.entries / cfg.ways) as u64;
        SdArray {
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

    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, block: BlockAddr) -> u64 {
        block.0 >> self.set_shift
    }

    fn find(&self, block: BlockAddr) -> Option<usize> {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.ways;
        (base..base + self.ways).find(|&i| self.data[i].valid && self.data[i].tag == tag)
    }

    /// Looks up an entry without touching LRU.
    pub fn peek(&self, block: BlockAddr) -> Option<SdEntryView> {
        self.find(block).map(|i| {
            let w = &self.data[i];
            SdEntryView {
                state: w.state,
                owner: w.owner,
                first_requester: w.first_requester,
                sharers: w.sharers,
            }
        })
    }

    /// Installs (or refreshes) a MODIFIED entry for `block` owned by
    /// `owner`. Returns `false` when the set has no victim (all ways pinned
    /// TRANSIENT).
    pub fn insert_modified(&mut self, block: BlockAddr, owner: NodeId) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(i) = self.find(block) {
            let w = &mut self.data[i];
            if w.state == SdState::Transient {
                // A transfer is in flight for the previous owner; do not
                // clobber the bookkeeping. (New ownership implies the old
                // CtoC will NAK and the requester falls back to the home.)
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
                    // A valid MODIFIED hint is silently dropped — record the
                    // victim (and its state) so observers can count
                    // replacement pressure and cross-check the TRANSIENT pin.
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

    /// Transitions a MODIFIED entry to TRANSIENT with `requester` as the
    /// first waiter. Returns `false` if the pending-buffer bound is
    /// reached (the caller then forwards the read to the home instead).
    pub fn make_transient(&mut self, block: BlockAddr, requester: NodeId) -> bool {
        if self.transients >= self.pending_limit {
            return false;
        }
        if let Some(i) = self.find(block) {
            let w = &mut self.data[i];
            if w.state == SdState::Transient {
                return false; // already tracking a transfer for this block
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

    /// Adds a waiter to a TRANSIENT entry's bit vector (Accumulate policy).
    pub fn add_sharer(&mut self, block: BlockAddr, requester: NodeId) -> bool {
        if let Some(i) = self.find(block) {
            let w = &mut self.data[i];
            if w.state == SdState::Transient {
                w.sharers.insert(requester);
                return true;
            }
        }
        false
    }

    /// Removes an entry; returns `true` if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
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

    /// Number of valid entries (O(1): maintained incrementally).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(self.valid, self.data.iter().filter(|w| w.valid).count());
        self.valid
    }

    /// Takes the most recent eviction victim and its pre-eviction state (a
    /// valid entry dropped by [`SdArray::insert_modified`]), clearing it.
    /// The state is always `Modified` while the TRANSIENT pin holds.
    pub fn take_last_evicted(&mut self) -> Option<(BlockAddr, SdState)> {
        self.last_evicted.take()
    }

    /// Number of TRANSIENT entries.
    pub fn transient_count(&self) -> usize {
        self.transients
    }

    /// Reconstructs the block address of the way at index `i`.
    fn block_of(&self, i: usize) -> BlockAddr {
        BlockAddr((self.data[i].tag << self.set_shift) | (i / self.ways) as u64)
    }

    /// Iterates over all valid entries as `(block, view)` pairs, in array
    /// order (deterministic). Used by the coherence checker and the fault
    /// machinery.
    pub fn entries(&self) -> impl Iterator<Item = (BlockAddr, SdEntryView)> + '_ {
        (0..self.data.len()).filter(|&i| self.data[i].valid).map(|i| {
            let w = &self.data[i];
            (
                self.block_of(i),
                SdEntryView {
                    state: w.state,
                    owner: w.owner,
                    first_requester: w.first_requester,
                    sharers: w.sharers,
                },
            )
        })
    }

    /// ECC-scrub fault: invalidates one MODIFIED entry chosen by `nonce`
    /// (deterministic in the nonce and array contents). TRANSIENT entries
    /// are never scrubbed — they pin in-flight protocol state the same way
    /// a real scrub engine skips busy lines. Returns the victim block.
    pub fn scrub_one(&mut self, nonce: u64) -> Option<BlockAddr> {
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

    /// Forced eviction storm: drops up to `n` MODIFIED entries starting at
    /// a `nonce`-derived rotation of the array (deterministic). Returns how
    /// many were dropped. TRANSIENT entries survive.
    pub fn force_evict(&mut self, n: u32, nonce: u64) -> u32 {
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

    /// Disable fault: drops every MODIFIED entry (they are pure hints;
    /// TRANSIENT entries stay to drain their in-flight transfers). Returns
    /// how many were dropped.
    pub fn drop_modified(&mut self) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::rng::SmallRng;

    fn small() -> SdArray {
        // 4 sets x 2 ways.
        SdArray::new(SwitchDirConfig {
            entries: 8,
            ways: 2,
            pending_buffer_entries: 8,
            ..SwitchDirConfig::paper_default()
        })
    }

    #[test]
    fn insert_and_peek() {
        let mut a = small();
        assert!(a.insert_modified(BlockAddr(5), 3));
        let e = a.peek(BlockAddr(5)).unwrap();
        assert_eq!(e.state, SdState::Modified);
        assert_eq!(e.owner, 3);
        assert_eq!(a.occupancy(), 1);
    }

    #[test]
    fn reinsert_updates_owner() {
        let mut a = small();
        a.insert_modified(BlockAddr(5), 3);
        assert!(a.insert_modified(BlockAddr(5), 9));
        assert_eq!(a.peek(BlockAddr(5)).unwrap().owner, 9);
        assert_eq!(a.occupancy(), 1);
    }

    #[test]
    fn lru_prefers_modified_victims() {
        let mut a = small();
        // Set 0 holds blocks 0 and 4 (4 sets).
        a.insert_modified(BlockAddr(0), 1);
        a.insert_modified(BlockAddr(4), 2);
        // Pin block 0 as TRANSIENT; inserting block 8 must evict block 4
        // even though block 0 is older.
        assert!(a.make_transient(BlockAddr(0), 7));
        assert!(a.insert_modified(BlockAddr(8), 3));
        assert!(a.peek(BlockAddr(0)).is_some(), "transient entry survives");
        assert!(a.peek(BlockAddr(4)).is_none());
        assert!(a.peek(BlockAddr(8)).is_some());
    }

    #[test]
    fn all_transient_set_refuses_insert() {
        let mut a = small();
        a.insert_modified(BlockAddr(0), 1);
        a.insert_modified(BlockAddr(4), 2);
        a.make_transient(BlockAddr(0), 7);
        a.make_transient(BlockAddr(4), 8);
        assert!(!a.insert_modified(BlockAddr(8), 3), "no evictable way");
        assert_eq!(a.transient_count(), 2);
    }

    #[test]
    fn pending_limit_enforced() {
        let mut a = SdArray::new(SwitchDirConfig {
            entries: 8,
            ways: 2,
            pending_buffer_entries: 1,
            ..SwitchDirConfig::paper_default()
        });
        a.insert_modified(BlockAddr(0), 1);
        a.insert_modified(BlockAddr(1), 2);
        assert!(a.make_transient(BlockAddr(0), 7));
        assert!(!a.make_transient(BlockAddr(1), 8), "pending buffer full");
        a.invalidate(BlockAddr(0));
        assert!(a.make_transient(BlockAddr(1), 8), "slot freed by invalidate");
    }

    #[test]
    fn transient_not_clobbered_by_new_write_reply() {
        let mut a = small();
        a.insert_modified(BlockAddr(0), 1);
        a.make_transient(BlockAddr(0), 7);
        assert!(!a.insert_modified(BlockAddr(0), 9));
        let e = a.peek(BlockAddr(0)).unwrap();
        assert_eq!(e.state, SdState::Transient);
        assert_eq!(e.owner, 1);
    }

    #[test]
    fn add_sharer_only_on_transient() {
        let mut a = small();
        a.insert_modified(BlockAddr(0), 1);
        assert!(!a.add_sharer(BlockAddr(0), 5));
        a.make_transient(BlockAddr(0), 7);
        assert!(a.add_sharer(BlockAddr(0), 5));
        let e = a.peek(BlockAddr(0)).unwrap();
        assert!(e.sharers.contains(5) && e.sharers.contains(7));
        assert_eq!(e.first_requester, 7);
    }

    #[test]
    fn eviction_victims_are_surfaced() {
        let mut a = small();
        assert!(a.take_last_evicted().is_none());
        a.insert_modified(BlockAddr(0), 1);
        a.insert_modified(BlockAddr(4), 2);
        // Set 0 is full; inserting block 8 evicts LRU block 0.
        a.insert_modified(BlockAddr(8), 3);
        assert_eq!(a.take_last_evicted(), Some((BlockAddr(0), SdState::Modified)));
        assert!(a.take_last_evicted().is_none(), "take clears the record");
        assert_eq!(a.occupancy(), 2);
    }

    #[test]
    fn entries_iteration_reconstructs_blocks() {
        let mut a = small();
        a.insert_modified(BlockAddr(5), 3);
        a.insert_modified(BlockAddr(9), 4);
        a.make_transient(BlockAddr(9), 7);
        let got: Vec<(BlockAddr, SdState)> = a.entries().map(|(b, e)| (b, e.state)).collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&(BlockAddr(5), SdState::Modified)));
        assert!(got.contains(&(BlockAddr(9), SdState::Transient)));
    }

    #[test]
    fn scrub_skips_transients_and_is_deterministic() {
        let mut a = small();
        a.insert_modified(BlockAddr(0), 1);
        a.make_transient(BlockAddr(0), 7);
        assert_eq!(a.scrub_one(3), None, "only a TRANSIENT entry present");
        a.insert_modified(BlockAddr(1), 2);
        a.insert_modified(BlockAddr(2), 3);
        let mut b = a.clone();
        assert_eq!(a.scrub_one(11), b.scrub_one(11), "same nonce, same victim");
        assert_eq!(a.occupancy(), 2);
        assert_eq!(a.transient_count(), 1);
    }

    #[test]
    fn force_evict_and_drop_modified_spare_transients() {
        let mut a = small();
        for blk in 0..6u64 {
            a.insert_modified(BlockAddr(blk), 1);
        }
        a.make_transient(BlockAddr(0), 7);
        assert_eq!(a.force_evict(2, 99), 2);
        assert_eq!(a.occupancy(), 4);
        assert_eq!(a.drop_modified(), 3);
        assert_eq!(a.occupancy(), 1);
        assert_eq!(a.peek(BlockAddr(0)).unwrap().state, SdState::Transient);
        assert_eq!(a.transient_count(), 1);
        assert_eq!(a.drop_modified(), 0);
    }

    /// The transient counter always equals the number of TRANSIENT
    /// entries, and occupancy never exceeds capacity (seeded randomized
    /// sweep).
    #[test]
    fn transient_accounting_stays_exact() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut a = small();
            for step in 0..300 {
                let op = rng.gen_range(0u8..3);
                let block = BlockAddr(rng.gen_range(0u64..32));
                let n = rng.gen_range(0u8..16);
                match op {
                    0 => {
                        a.insert_modified(block, n);
                    }
                    1 => {
                        a.make_transient(block, n);
                    }
                    _ => {
                        a.invalidate(block);
                    }
                }
                let actual = (0..32u64)
                    .filter(|&x| {
                        a.peek(BlockAddr(x)).is_some_and(|e| e.state == SdState::Transient)
                    })
                    .count();
                assert_eq!(a.transient_count(), actual, "seed {seed} step {step}");
                assert!(a.occupancy() <= 8, "seed {seed} step {step}");
            }
        }
    }
}
