//! A set-associative cache array with coherence line states and true-LRU
//! replacement.
//!
//! A way is 16 bytes: the tag, a 32-bit LRU stamp and the line state
//! (`None` = INVALID), so a 4-way set fills one 64-byte host cache line.
//! The stamps come from the LRU clock shared with the switch directories
//! ([`dresar_types::lru`]), which rank-compresses them rather than wrap.
//!
//! The ways are stored in chunks of consecutive sets, 4 KB each where a
//! set fits (256 ways: 64 sets at 4-way, 128 at 2-way). A chunk is
//! written, all INVALID, when [`SetAssocCache::insert`] first installs a
//! block in one of its sets. Until then the chunk is unwritten: every way
//! of its sets is INVALID without being stored, so `probe`, `access`,
//! `set_state` and `invalidate` there miss and write nothing (`access`
//! still ticks the LRU clock). A cache costs what its references touch: a
//! trace-driven run whose 2 MB caches see a few hundred sets each never
//! writes the rest of their 64K ways.
//!
//! Written chunks sit in one buffer, in the order of their first insert,
//! found through a per-chunk table; an unwritten chunk's entry points past
//! the buffer's end, so the range check every lookup makes anyway is what
//! misses there. `new` reserves the buffer for every chunk but writes none
//! of it: the buffer is allocated with the cache, as the dense array was,
//! and never grows, and the pages of chunks never written are never
//! touched. (Boxing each chunk on its own as it is first written scatters
//! 4 KB blocks among a run's other allocations; in a loop of runs that
//! fragmented the heap, which grew by about 1 MB per run.) The LRU clock's
//! wrap and `occupancy` walk only the written chunks; `resident_blocks`
//! visits the sets in order and reads the ways of written ones only.

use dresar_types::config::CacheGeometry;
use dresar_types::lru::next_stamp;
use dresar_types::BlockAddr;

#[cfg(test)]
mod reference;

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
    /// LRU stamp: larger = more recently used.
    lru: u32,
    /// `None` = INVALID.
    state: Option<LineState>,
}

impl Way {
    const EMPTY: Way = Way { tag: 0, lru: 0, state: None };

    #[inline]
    fn holds(&self, tag: u64) -> bool {
        self.state.is_some() && self.tag == tag
    }
}

/// Ways per chunk: 4 KB of 16-byte ways. A chunk holds the largest power
/// of two of whole sets that fits, at most every set (and one set if a
/// set alone is larger).
const CHUNK_WAYS: usize = 256;

/// Where an unwritten chunk's sets start in `data`: past the end of any
/// buffer, so the range check of a lookup there fails and it misses.
const UNWRITTEN: usize = usize::MAX / 2;

/// A single set-associative cache array.
///
/// Keys are [`BlockAddr`]s; the array derives (set, tag) internally from its
/// geometry. All operations are O(associativity).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    ways: u32,
    set_mask: u64,
    set_shift: u32,
    /// log2 of the sets per chunk.
    chunk_shift: u32,
    /// Per chunk: set `s` starts at way `bias[s >> chunk_shift] + s * ways`
    /// of `data` (wrapping), that is the chunk's place in `data` less its
    /// first set's place in a dense array. Unwritten chunks' sets start at
    /// [`UNWRITTEN`].
    bias: Box<[usize]>,
    /// The written chunks, in the order of their first insert. `new`
    /// reserves room for every chunk up front; the pages of chunks never
    /// written are never touched.
    data: Vec<Way>,
    stamp: u32,
}

impl SetAssocCache {
    /// Builds an empty cache from a validated geometry. Room for every way
    /// is reserved, but no way is written until a block is inserted.
    ///
    /// # Panics
    /// Panics if the geometry does not validate.
    pub fn new(geom: CacheGeometry) -> Self {
        geom.validate().expect("invalid cache geometry");
        let sets = geom.sets();
        let ways = geom.ways as usize;
        let chunk_shift = (CHUNK_WAYS / ways).max(1).ilog2().min(sets.trailing_zeros());
        let chunk_ways = ways << chunk_shift;
        SetAssocCache {
            ways: geom.ways,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            chunk_shift,
            bias: (0..(sets >> chunk_shift) as usize)
                .map(|chunk| UNWRITTEN.wrapping_sub(chunk * chunk_ways))
                .collect(),
            data: Vec::with_capacity(sets as usize * ways),
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

    /// Where `set`'s ways start in `data`: [`UNWRITTEN`] or beyond if its
    /// chunk was never written.
    #[inline]
    fn base(&self, set: usize) -> usize {
        self.bias[set >> self.chunk_shift].wrapping_add(set * self.ways as usize)
    }

    /// The next LRU stamp. Every lookup ticks, so the common case stays
    /// inline and only a clock about to wrap calls out.
    #[inline]
    fn tick(&mut self) -> u32 {
        match self.stamp.checked_add(1) {
            Some(stamp) => {
                self.stamp = stamp;
                stamp
            }
            None => self.wrap_clock(),
        }
    }

    /// The clock's wrap (see [`next_stamp`]). It walks only the written
    /// chunks: an unwritten one has no live way.
    #[cold]
    fn wrap_clock(&mut self) -> u32 {
        next_stamp(&mut self.stamp, || {
            self.data.iter_mut().filter(|w| w.state.is_some()).map(|w| &mut w.lru)
        })
    }

    /// The ways of `set`, or `None` if its chunk was never written.
    #[inline]
    fn set_slice(&self, set: usize) -> Option<&[Way]> {
        let base = self.base(set);
        self.data.get(base..base + self.ways as usize)
    }

    #[inline]
    fn set_slice_mut(&mut self, set: usize) -> Option<&mut [Way]> {
        let base = self.base(set);
        self.data.get_mut(base..base + self.ways as usize)
    }

    /// The ways of `set`, writing its chunk (all INVALID) first if needed.
    #[inline]
    fn set_slice_alloc(&mut self, set: usize) -> &mut [Way] {
        let mut base = self.base(set);
        if base >= self.data.len() {
            let chunk = set >> self.chunk_shift;
            let len = (self.ways as usize) << self.chunk_shift;
            let at = self.data.len();
            self.bias[chunk] = at.wrapping_sub(chunk * len);
            self.data.resize(at + len, Way::EMPTY);
            base = self.base(set);
        }
        &mut self.data[base..base + self.ways as usize]
    }

    /// Looks up a block without touching LRU state.
    pub fn probe(&self, block: BlockAddr) -> Option<LineState> {
        let tag = self.tag_of(block);
        self.set_slice(self.set_of(block))?.iter().find(|w| w.holds(tag)).and_then(|w| w.state)
    }

    /// Looks up a block and, on a hit, refreshes its LRU stamp.
    pub fn access(&mut self, block: BlockAddr) -> Option<LineState> {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        let stamp = self.tick();
        self.set_slice_mut(set)?.iter_mut().find(|w| w.holds(tag)).and_then(|w| {
            w.lru = stamp;
            w.state
        })
    }

    /// Changes the state of a resident block. Returns `false` if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        if let Some(w) = self.set_slice_mut(set).and_then(|s| s.iter_mut().find(|w| w.holds(tag))) {
            w.state = Some(state);
            true
        } else {
            false
        }
    }

    /// Removes a block. Returns its state if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<LineState> {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        self.set_slice_mut(set)?.iter_mut().find(|w| w.holds(tag)).and_then(|w| w.state.take())
    }

    /// Inserts a block with `state`, evicting the LRU way of a full set.
    /// Returns the evicted block and its state, if any. Inserting a block
    /// that is already resident just updates state and LRU.
    pub fn insert(&mut self, block: BlockAddr, state: LineState) -> Option<(BlockAddr, LineState)> {
        let tag = self.tag_of(block);
        let set = self.set_of(block);
        let set_shift = self.set_shift;
        let stamp = self.tick();
        let slice = self.set_slice_alloc(set);

        if let Some(w) = slice.iter_mut().find(|w| w.holds(tag)) {
            w.state = Some(state);
            w.lru = stamp;
            return None;
        }
        // Prefer an invalid way; otherwise evict the smallest-stamp way.
        let victim_idx = match slice.iter().position(|w| w.state.is_none()) {
            Some(i) => i,
            None => slice
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("associativity >= 1"),
        };
        let victim = slice[victim_idx];
        slice[victim_idx] = Way { tag, lru: stamp, state: Some(state) };
        victim.state.map(|v| (BlockAddr((victim.tag << set_shift) | set as u64), v))
    }

    /// Number of valid lines (diagnostic).
    pub fn occupancy(&self) -> usize {
        self.data.iter().filter(|w| w.state.is_some()).count()
    }

    /// Iterates all resident blocks (diagnostic; ordered by set then way).
    pub fn resident_blocks(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        (0..=self.set_mask).flat_map(move |set| {
            self.set_slice(set as usize)
                .unwrap_or_default()
                .iter()
                .filter_map(move |w| Some((BlockAddr((w.tag << self.set_shift) | set), w.state?)))
        })
    }

    /// Number of chunks written so far.
    #[cfg(test)]
    fn written_chunks(&self) -> usize {
        let shift = self.chunk_shift;
        (0..self.bias.len()).filter(|&chunk| self.base(chunk << shift) < self.data.len()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefCache;
    use super::*;
    use dresar_types::config::{CacheGeometry, TraceSimConfig};
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

    #[test]
    fn way_fills_a_quarter_cache_line() {
        assert_eq!(std::mem::size_of::<Way>(), 16);
    }

    const STATES: [LineState; 4] =
        [LineState::Shared, LineState::Exclusive, LineState::Owned, LineState::Modified];

    /// The Table 3 trace-driven cache: 2 MB of 32-byte lines, 4-way, so
    /// 16K sets in 256 chunks of 64 sets.
    fn table3() -> CacheGeometry {
        TraceSimConfig::paper_table3().cache
    }

    /// Sets per chunk for a power-of-two associativity, stated from the
    /// 4 KB chunk rather than read back from the cache.
    fn sets_per_chunk(geom: CacheGeometry) -> u64 {
        (256 / geom.ways as u64).clamp(1, geom.sets())
    }

    /// Runs `steps` seeded random operations on blocks drawn by `draw`, on
    /// a cache whose clock starts at `clock` and on the reference model,
    /// comparing every return value (insert victims included), the probe,
    /// `occupancy()` and `resident_blocks()` in order after each step. Only
    /// an insert may write a chunk, and the written chunks are exactly
    /// those of the inserted blocks' sets.
    fn differential(
        geom: CacheGeometry,
        seed: u64,
        steps: usize,
        clock: u32,
        mut draw: impl FnMut(&mut SmallRng) -> BlockAddr,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut c = SetAssocCache::new(geom);
        c.stamp = clock;
        let mut r = RefCache::new(geom);
        let mut inserted_chunks = std::collections::BTreeSet::new();
        for step in 0..steps {
            let block = draw(&mut rng);
            let state = STATES[rng.gen_range(0usize..4)];
            let ctx = format!("{geom:?} seed {seed} step {step}");
            match rng.gen_range(0u8..10) {
                0..=3 => {
                    assert_eq!(c.insert(block, state), r.insert(block, state), "{ctx}");
                    inserted_chunks.insert((block.0 % geom.sets()) / sets_per_chunk(geom));
                }
                4..=6 => assert_eq!(c.access(block), r.access(block), "{ctx}"),
                7 => assert_eq!(c.set_state(block, state), r.set_state(block, state), "{ctx}"),
                _ => assert_eq!(c.invalidate(block), r.invalidate(block), "{ctx}"),
            }
            assert_eq!(c.written_chunks(), inserted_chunks.len(), "{ctx}");
            assert_eq!(c.probe(block), r.probe(block), "{ctx}");
            assert_eq!(c.occupancy(), r.occupancy(), "{ctx}");
            assert!(c.resident_blocks().eq(r.resident_blocks()), "{ctx}");
        }
    }

    /// The small cache: 512 bytes of 32-byte lines, 64 blocks in play.
    fn small_differential(ways: u32, seed: u64, steps: usize, clock: u32) {
        let geom = CacheGeometry { size_bytes: 512, line_bytes: 32, ways, access_cycles: 1 };
        differential(geom, seed, steps, clock, |rng| BlockAddr(rng.gen_range(0..64)));
    }

    /// The Table 3 cache under a stream confined to six runs of 50
    /// consecutive sets (300 of 16K, in at most 12 of the 256 chunks),
    /// with six tags per set so full sets evict.
    fn table3_differential(seed: u64, steps: usize, clock: u32) {
        let geom = table3();
        let mut rng = SmallRng::seed_from_u64(!seed);
        let starts: Vec<u64> = (0..6).map(|_| rng.gen_range(0..geom.sets() - 50)).collect();
        let set_bits = geom.sets().trailing_zeros();
        differential(geom, seed, steps, clock, |rng| {
            let set = starts[rng.gen_range(0usize..6)] + rng.gen_range(0u64..50);
            BlockAddr((rng.gen_range(0u64..6) << set_bits) | set)
        });
    }

    /// The 16-byte way with a 32-bit stamp, in chunks written on first
    /// insert, behaves exactly like the earlier dense layout with a
    /// `valid` flag and a 64-bit stamp.
    #[test]
    fn matches_reference_model() {
        for ways in [1u32, 2, 4, 16] {
            for seed in 0..32u64 {
                small_differential(ways, seed, 400, 0);
            }
        }
        for seed in 0..4u64 {
            table3_differential(seed, 400, 0);
        }
    }

    /// A clock about to wrap rank-compresses the live stamps and keeps
    /// every victim of the reference's 64-bit clock.
    #[test]
    fn clock_wrap_keeps_reference_victims() {
        for ways in [1u32, 2, 4, 16] {
            for seed in 0..16u64 {
                small_differential(ways, seed, 400, u32::MAX - 60);
            }
        }
        for seed in 0..4u64 {
            table3_differential(seed, 400, u32::MAX - 60);
        }
        let mut c = small();
        c.stamp = u32::MAX - 1;
        for blk in [0u64, 4, 0] {
            c.insert(BlockAddr(blk), LineState::Shared);
        }
        assert!(c.stamp < 8, "the clock restarted low, at {}", c.stamp);
        assert_eq!(
            c.insert(BlockAddr(8), LineState::Shared),
            Some((BlockAddr(4), LineState::Shared))
        );
    }

    /// A lookup, state change or invalidation of an unwritten set is a
    /// miss that writes no chunk; an access still ticks the clock.
    #[test]
    fn unwritten_sets_miss_without_writing() {
        let mut c = SetAssocCache::new(table3());
        c.insert(BlockAddr(70), LineState::Shared);
        assert_eq!(c.written_chunks(), 1);
        for set in [0u64, 63, 64, 200, 16383] {
            let block = BlockAddr((3 << 14) | set);
            let stamp = c.stamp;
            assert_eq!(c.probe(block), None);
            assert_eq!(c.access(block), None);
            assert_eq!(c.stamp, stamp + 1, "set {set}: access ticks the clock");
            assert!(!c.set_state(block, LineState::Modified));
            assert_eq!(c.invalidate(block), None);
            assert_eq!(c.written_chunks(), 1, "set {set}");
        }
        assert_eq!(c.occupancy(), 1);
        assert!(c.resident_blocks().eq([(BlockAddr(70), LineState::Shared)]));
    }

    /// A stream confined to N sets writes exactly the chunks those sets
    /// fall in, and nothing is allocated before the first insert.
    #[test]
    fn confined_stream_writes_only_its_chunks() {
        let geom = table3();
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..400);
            let sets: Vec<u64> = (0..n).map(|_| rng.gen_range(0..geom.sets())).collect();
            let mut c = SetAssocCache::new(geom);
            assert_eq!(c.written_chunks(), 0);
            for (i, &set) in sets.iter().enumerate() {
                c.insert(BlockAddr(((i as u64 % 8) << 14) | set), LineState::Shared);
            }
            let chunks: std::collections::BTreeSet<u64> =
                sets.iter().map(|s| s / sets_per_chunk(geom)).collect();
            assert_eq!(c.written_chunks(), chunks.len(), "seed {seed}: {n} sets");
        }
    }
}
