//! The set-associative switch-directory entry array (paper §4.2) and its
//! pending table (§4.3).
//!
//! Entry layout follows the paper: an entry is a tag, the owner pid and two
//! state bits (here `Option<SdState>`, `None` = INVALID), plus a 32-bit LRU
//! stamp and the index of a pending-table slot — 16 bytes, so a 4-way set
//! fills one 64-byte host cache line. Only a TRANSIENT entry needs a first
//! requester and, for the Accumulate ablation, a sharer bit vector; those
//! live in a per-switch pending table of `min(pending_buffer_entries,
//! entries)` slots (§4.3's small 8–16 entry buffer for 8x8 switches). A
//! MODIFIED entry's view reports its owner as first requester and no
//! sharers.
//!
//! Replacement is LRU with two refinements the protocol requires:
//!
//! * **TRANSIENT entries are pinned**: a sunk read depends on the entry
//!   surviving until the owner's copyback/writeback passes, so TRANSIENT
//!   ways are never victims. MODIFIED entries are pure hints and always
//!   safe to drop.
//! * The **pending-buffer bound** caps the number of simultaneous TRANSIENT
//!   entries per switch: when every slot is taken, new read hits fall
//!   through to the home path.

use dresar_types::config::SwitchDirConfig;
use dresar_types::lru::next_stamp;
use dresar_types::{BlockAddr, NodeId, SharerSet};

#[cfg(test)]
mod reference;

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
    /// First requester (receives the owner's direct CtoC data); the owner
    /// itself for a MODIFIED entry.
    pub first_requester: NodeId,
    /// All requesters this switch has served or queued (bit vector); empty
    /// for a MODIFIED entry.
    pub sharers: SharerSet,
}

/// One entry of the main array (§4.2).
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    /// LRU stamp: larger = more recently used.
    lru: u32,
    /// The pending-table slot of a TRANSIENT way; meaningless otherwise.
    slot: u16,
    owner: NodeId,
    /// `None` = INVALID.
    state: Option<SdState>,
}

impl Way {
    const EMPTY: Way = Way { tag: 0, lru: 0, slot: 0, owner: 0, state: None };
}

/// One pending-table slot (§4.3): what a TRANSIENT way awaits.
#[derive(Debug, Clone, Copy)]
struct Pending {
    first_requester: NodeId,
    sharers: SharerSet,
}

/// The entry array and its pending table.
#[derive(Debug, Clone)]
pub struct SdArray {
    ways: usize,
    set_mask: u64,
    set_shift: u32,
    data: Vec<Way>,
    stamp: u32,
    valid: usize,
    last_evicted: Option<(BlockAddr, SdState)>,
    pending: Vec<Pending>,
    /// Free pending-table slots, popped from the back.
    free: Vec<u16>,
}

impl SdArray {
    /// Builds an array from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration does not validate.
    pub fn new(cfg: SwitchDirConfig) -> Self {
        cfg.validate().expect("invalid switch-directory config");
        let sets = (cfg.entries / cfg.ways) as u64;
        let slots = cfg.pending_buffer_entries.clamp(1, cfg.entries) as usize;
        SdArray {
            ways: cfg.ways as usize,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            data: vec![Way::EMPTY; cfg.entries as usize],
            stamp: 0,
            valid: 0,
            last_evicted: None,
            pending: vec![Pending { first_requester: 0, sharers: SharerSet::EMPTY }; slots],
            free: (0..slots).rev().map(|s| s as u16).collect(),
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

    /// The next LRU stamp (see [`next_stamp`] for the wrap).
    fn tick(&mut self) -> u32 {
        next_stamp(&mut self.stamp, || {
            self.data.iter_mut().filter(|w| w.state.is_some()).map(|w| &mut w.lru)
        })
    }

    fn find(&self, block: BlockAddr) -> Option<usize> {
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.ways;
        (base..base + self.ways).find(|&i| self.data[i].state.is_some() && self.data[i].tag == tag)
    }

    /// The view of valid way `i`.
    fn view(&self, i: usize) -> SdEntryView {
        let w = &self.data[i];
        match w.state {
            Some(SdState::Transient) => {
                let p = &self.pending[w.slot as usize];
                SdEntryView {
                    state: SdState::Transient,
                    owner: w.owner,
                    first_requester: p.first_requester,
                    sharers: p.sharers,
                }
            }
            _ => SdEntryView {
                state: SdState::Modified,
                owner: w.owner,
                first_requester: w.owner,
                sharers: SharerSet::EMPTY,
            },
        }
    }

    /// Invalidates valid way `i`, freeing its pending slot if TRANSIENT.
    fn drop_way(&mut self, i: usize) {
        if self.data[i].state == Some(SdState::Transient) {
            self.free.push(self.data[i].slot);
        }
        self.data[i].state = None;
        self.valid -= 1;
    }

    /// Looks up an entry without touching LRU.
    pub fn peek(&self, block: BlockAddr) -> Option<SdEntryView> {
        self.find(block).map(|i| self.view(i))
    }

    /// Installs (or refreshes) a MODIFIED entry for `block` owned by
    /// `owner`. Returns `false` when the set has no victim (all ways pinned
    /// TRANSIENT).
    pub fn insert_modified(&mut self, block: BlockAddr, owner: NodeId) -> bool {
        let stamp = self.tick();
        if let Some(i) = self.find(block) {
            let w = &mut self.data[i];
            if w.state == Some(SdState::Transient) {
                // A transfer is in flight for the previous owner; do not
                // clobber the bookkeeping. (New ownership implies the old
                // CtoC will NAK and the requester falls back to the home.)
                return false;
            }
            w.owner = owner;
            w.lru = stamp;
            return true;
        }
        let set = self.set_of(block);
        let tag = self.tag_of(block);
        let base = set * self.ways;
        let victim = (base..base + self.ways)
            .filter(|&i| self.data[i].state != Some(SdState::Transient))
            .min_by_key(|&i| match self.data[i].state {
                Some(_) => (1, self.data[i].lru),
                None => (0, 0),
            });
        match victim {
            Some(i) => {
                if let Some(state) = self.data[i].state {
                    // A valid MODIFIED hint is silently dropped — record the
                    // victim (and its state) so observers can count
                    // replacement pressure and cross-check the TRANSIENT pin.
                    self.last_evicted = Some((self.block_of(i), state));
                } else {
                    self.valid += 1;
                }
                self.data[i] =
                    Way { tag, lru: stamp, slot: 0, owner, state: Some(SdState::Modified) };
                true
            }
            None => false,
        }
    }

    /// Transitions a MODIFIED entry to TRANSIENT with `requester` as the
    /// first waiter. Returns `false` if the pending table is full (the
    /// caller then forwards the read to the home instead).
    pub fn make_transient(&mut self, block: BlockAddr, requester: NodeId) -> bool {
        let Some(i) = self.find(block) else { return false };
        if self.data[i].state == Some(SdState::Transient) {
            return false; // already tracking a transfer for this block
        }
        let Some(slot) = self.free.pop() else { return false };
        self.pending[slot as usize] =
            Pending { first_requester: requester, sharers: SharerSet::singleton(requester) };
        let stamp = self.tick();
        let w = &mut self.data[i];
        w.state = Some(SdState::Transient);
        w.slot = slot;
        w.lru = stamp;
        true
    }

    /// Adds a waiter to a TRANSIENT entry's bit vector (Accumulate policy).
    pub fn add_sharer(&mut self, block: BlockAddr, requester: NodeId) -> bool {
        match self.find(block) {
            Some(i) if self.data[i].state == Some(SdState::Transient) => {
                self.pending[self.data[i].slot as usize].sharers.insert(requester);
                true
            }
            _ => false,
        }
    }

    /// Removes an entry; returns `true` if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        match self.find(block) {
            Some(i) => {
                self.drop_way(i);
                true
            }
            None => false,
        }
    }

    /// Number of valid entries (O(1): maintained incrementally).
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(self.valid, self.data.iter().filter(|w| w.state.is_some()).count());
        self.valid
    }

    /// Takes the most recent eviction victim and its pre-eviction state (a
    /// valid entry dropped by [`SdArray::insert_modified`]), clearing it.
    /// The state is always `Modified` while the TRANSIENT pin holds.
    pub fn take_last_evicted(&mut self) -> Option<(BlockAddr, SdState)> {
        self.last_evicted.take()
    }

    /// Number of TRANSIENT entries (the pending table's used slots).
    pub fn transient_count(&self) -> usize {
        self.pending.len() - self.free.len()
    }

    /// Reconstructs the block address of the way at index `i`.
    fn block_of(&self, i: usize) -> BlockAddr {
        BlockAddr((self.data[i].tag << self.set_shift) | (i / self.ways) as u64)
    }

    /// Whether way `i` holds a MODIFIED entry (the only kind a fault drops).
    fn is_modified(&self, i: usize) -> bool {
        self.data[i].state == Some(SdState::Modified)
    }

    /// Iterates over all valid entries as `(block, view)` pairs, in array
    /// order (deterministic). Used by the coherence checker and the fault
    /// machinery.
    pub fn entries(&self) -> impl Iterator<Item = (BlockAddr, SdEntryView)> + '_ {
        (0..self.data.len())
            .filter(|&i| self.data[i].state.is_some())
            .map(|i| (self.block_of(i), self.view(i)))
    }

    /// ECC-scrub fault: invalidates one MODIFIED entry chosen by `nonce`
    /// (deterministic in the nonce and array contents). TRANSIENT entries
    /// are never scrubbed — they pin in-flight protocol state the same way
    /// a real scrub engine skips busy lines. Returns the victim block.
    pub fn scrub_one(&mut self, nonce: u64) -> Option<BlockAddr> {
        let modified: Vec<usize> = (0..self.data.len()).filter(|&i| self.is_modified(i)).collect();
        if modified.is_empty() {
            return None;
        }
        let i = modified[(nonce % modified.len() as u64) as usize];
        let block = self.block_of(i);
        self.drop_way(i);
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
            if self.is_modified(i) {
                self.drop_way(i);
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
            if self.is_modified(i) {
                self.drop_way(i);
                dropped += 1;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefArray;
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

    #[test]
    fn way_fills_a_quarter_cache_line() {
        assert_eq!(std::mem::size_of::<Way>(), 16);
    }

    /// Geometries for the differential tests: a pending table smaller than
    /// the array, one as large, and one clamped to the array's size.
    fn differential_configs() -> [SwitchDirConfig; 4] {
        let cfg = |entries, ways, pending_buffer_entries| SwitchDirConfig {
            entries,
            ways,
            pending_buffer_entries,
            ..SwitchDirConfig::paper_default()
        };
        [cfg(8, 2, 8), cfg(16, 4, 3), cfg(32, 4, 16), cfg(8, 8, 100)]
    }

    /// Runs `steps` seeded random operations on an array whose clock starts
    /// at `clock` and on the reference model, comparing every return value,
    /// every eviction victim, `entries()` in order and `peek` of every
    /// block after each step.
    fn differential(cfg: SwitchDirConfig, seed: u64, steps: usize, clock: u32) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut a = SdArray::new(cfg);
        a.stamp = clock;
        let mut r = RefArray::new(cfg);
        let universe = 4 * cfg.entries as u64;
        for step in 0..steps {
            let block = BlockAddr(rng.gen_range(0..universe));
            let node = rng.gen_range(0u8..255);
            let nonce = rng.next_u64();
            let ctx = format!("{cfg:?} seed {seed} step {step}");
            match rng.gen_range(0u8..100) {
                0..=34 => assert_eq!(
                    a.insert_modified(block, node),
                    r.insert_modified(block, node),
                    "{ctx}"
                ),
                35..=54 => assert_eq!(
                    a.make_transient(block, node),
                    r.make_transient(block, node),
                    "{ctx}"
                ),
                55..=64 => {
                    assert_eq!(a.add_sharer(block, node), r.add_sharer(block, node), "{ctx}")
                }
                65..=84 => assert_eq!(a.invalidate(block), r.invalidate(block), "{ctx}"),
                85..=91 => assert_eq!(a.scrub_one(nonce), r.scrub_one(nonce), "{ctx}"),
                92..=98 => {
                    let n = rng.gen_range(0u32..4);
                    assert_eq!(a.force_evict(n, nonce), r.force_evict(n, nonce), "{ctx}")
                }
                _ => assert_eq!(a.drop_modified(), r.drop_modified(), "{ctx}"),
            }
            assert_eq!(a.take_last_evicted(), r.take_last_evicted(), "{ctx}");
            assert_eq!(a.occupancy(), r.occupancy(), "{ctx}");
            assert_eq!(a.transient_count(), r.transient_count(), "{ctx}");
            assert!(a.entries().eq(r.entries()), "{ctx}");
            for b in 0..universe {
                assert_eq!(a.peek(BlockAddr(b)), r.peek(BlockAddr(b)), "{ctx} block {b}");
            }
        }
    }

    /// The 16-byte array with its pending table behaves exactly like the
    /// earlier layout with a sharer set and a 64-bit stamp in every way.
    #[test]
    fn matches_reference_model() {
        for cfg in differential_configs() {
            for seed in 0..32u64 {
                differential(cfg, seed, 400, 0);
            }
        }
    }

    /// A clock about to wrap rank-compresses the live stamps and keeps
    /// every victim choice of the reference's 64-bit clock.
    #[test]
    fn clock_wrap_keeps_reference_victims() {
        for cfg in differential_configs() {
            for seed in 0..16u64 {
                differential(cfg, seed, 400, u32::MAX - 60);
            }
        }
        let mut a = small();
        a.stamp = u32::MAX - 1;
        for blk in [0u64, 4, 0, 8] {
            a.insert_modified(BlockAddr(blk), 1);
        }
        assert!(a.stamp < 8, "the clock restarted low, at {}", a.stamp);
        assert_eq!(a.take_last_evicted(), Some((BlockAddr(4), SdState::Modified)));
    }
}
