//! Bounded least-recently-used map keyed by run digest.
//!
//! The server keeps two: the result cache, whose values are complete,
//! already-serialized response bodies behind `Arc` (so one cached body is
//! shared by every concurrent response writing it out), and the per-digest
//! service-time histograms `/metrics` reports. Determinism makes the
//! result cache *sound*, not merely probably-fine: the simulator
//! guarantees equal specs produce byte-identical reports, so a hit is
//! indistinguishable from a re-run and never needs invalidation.
//!
//! Eviction is least-recently-used, tracked with a monotone use-stamp per
//! entry. The victim scan is linear in the entry count, which is the right
//! trade at serving sizes (the paper's whole Figures 8–11 lattice is seven
//! workloads x five configurations): no linked-list bookkeeping on the hit
//! path, and the [`BTreeMap`] iterates in digest order.

use std::collections::BTreeMap;

/// A bounded LRU map from run digest to `V`.
#[derive(Debug)]
pub struct LruMap<V> {
    entries: BTreeMap<u64, Entry<V>>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<V> LruMap<V> {
    /// A map holding at most `capacity` entries (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        LruMap {
            entries: BTreeMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks a digest up, refreshing its recency on a hit; counts the
    /// lookup as a hit or a miss.
    pub fn get(&mut self, digest: u64) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&digest) {
            Some(e) => {
                e.last_used = clock;
                self.hits += 1;
                Some(&e.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts or replaces the value for `digest`, evicting the
    /// least-recently-used entry if a new digest finds the map full.
    pub fn insert(&mut self, digest: u64, value: V) {
        let last_used = self.admit(digest);
        self.entries.insert(digest, Entry { value, last_used });
    }

    /// The value for `digest`, refreshed as most recently used; a new
    /// digest gets `make()`, evicting as [`LruMap::insert`] does. Not
    /// counted as a lookup.
    pub fn get_or_insert_with(&mut self, digest: u64, make: impl FnOnce() -> V) -> &mut V {
        let last_used = self.admit(digest);
        let e = self.entries.entry(digest).or_insert_with(|| Entry { value: make(), last_used });
        e.last_used = last_used;
        &mut e.value
    }

    /// Advances the clock and, when `digest` is new and the map is full,
    /// evicts the least-recently-used entry. Returns the new stamp.
    fn admit(&mut self, digest: u64) -> u64 {
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&digest) {
            if let Some(victim) =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(&k, _)| k)
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.clock
    }

    /// The entries in digest order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(&k, e)| (k, &e.value))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses, evictions)` counters since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn hit_returns_the_inserted_body() {
        let mut c = LruMap::new(4);
        assert!(c.get(1).is_none());
        c.insert(1, body("one"));
        assert_eq!(c.get(1).unwrap().as_str(), "one");
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let mut c = LruMap::new(2);
        c.insert(1, body("a"));
        c.insert(2, body("b"));
        assert!(c.get(1).is_some()); // 1 is now more recent than 2
        c.insert(3, body("c")); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none(), "LRU entry 2 must be the victim");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn reinserting_an_existing_digest_does_not_evict() {
        let mut c = LruMap::new(2);
        c.insert(1, body("a"));
        c.insert(2, body("b"));
        c.insert(1, body("a2"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap().as_str(), "a2");
        assert!(c.get(2).is_some());
        assert_eq!(c.stats().2, 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c = LruMap::new(0);
        c.insert(1, body("a"));
        c.insert(2, body("b"));
        assert_eq!(c.len(), 1);
    }

    /// Per-digest histograms: every `get_or_insert_with` refreshes the
    /// digest, so the coldest digest is the one updated longest ago.
    #[test]
    fn get_or_insert_with_evicts_the_least_recently_updated_at_the_cap() {
        let mut d: LruMap<Vec<u64>> = LruMap::new(64);
        for digest in 0..64 {
            d.get_or_insert_with(digest, Vec::new).push(0);
        }
        assert_eq!((d.len(), d.stats().2), (64, 0));
        // Touch digest 0 so digest 1 becomes the coldest, then overflow.
        d.get_or_insert_with(0, Vec::new).push(1);
        d.get_or_insert_with(10_000, Vec::new).push(0);
        assert_eq!(d.len(), 64, "cap holds");
        assert_eq!(d.stats().2, 1);
        let kept: Vec<u64> = d.iter().map(|(k, _)| k).collect();
        assert!(kept.contains(&0), "recently touched digest survives");
        assert!(!kept.contains(&1), "coldest digest was evicted");
        assert!(kept.contains(&10_000), "new digest gets an entry, not a silent drop");
        assert_eq!(kept.first(), Some(&0), "iteration is in digest order");
        assert_eq!(kept.last(), Some(&10_000));
        assert_eq!(d.stats().0 + d.stats().1, 0, "updates are not lookups");
    }

    #[test]
    fn get_or_insert_with_at_the_cap_keeps_updating_known_digests() {
        let mut d: LruMap<Vec<u64>> = LruMap::new(64);
        for digest in 0..64 {
            d.get_or_insert_with(digest, Vec::new).push(0);
        }
        d.get_or_insert_with(3, || unreachable!("digest 3 exists")).push(2);
        assert_eq!(d.stats().2, 0, "existing digest never evicts");
        assert_eq!(d.get(3).map(Vec::as_slice), Some(&[0, 2][..]));
    }
}
