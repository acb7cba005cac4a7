//! Compact sharer sets ("directory bit vectors").
//!
//! The full-map directory keeps one bit per node for every memory block
//! (paper §3.2); the switch directory entries likewise carry "a bit vector
//! for marking subsequent sharers" (§4.2). A [`SharerSet`] is exactly that:
//! one flat 256-bit map, a plain `Copy` value that covers every id a
//! [`NodeId`] can express. Because the set covers the full `NodeId` range,
//! an id can never silently wrap a mask bit: out-of-range ids (relative to a
//! machine's configured node count) are a *machine* bounds violation and are
//! rejected with structured errors at the directory/system layer, never here.

use crate::addr::NodeId;

/// Words in the bitmap: 4 × 64 bits covers every `NodeId`.
const WORDS: usize = 4;

/// A set of node ids, held as a flat bitmap (word `i` holds ids
/// `64*i..64*i+63`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SharerSet([u64; WORDS]);

impl SharerSet {
    /// The empty set.
    pub const EMPTY: SharerSet = SharerSet([0; WORDS]);

    /// Creates a set containing exactly one node.
    #[inline]
    pub fn singleton(node: NodeId) -> Self {
        let mut s = SharerSet::EMPTY;
        s.insert(node);
        s
    }

    #[inline]
    fn word_bit(node: NodeId) -> (usize, u64) {
        ((node >> 6) as usize, 1u64 << (node & 63))
    }

    /// Inserts a node; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, bit) = Self::word_bit(node);
        let added = self.0[w] & bit == 0;
        self.0[w] |= bit;
        added
    }

    /// Removes a node; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, bit) = Self::word_bit(node);
        let present = self.0[w] & bit != 0;
        self.0[w] &= !bit;
        present
    }

    /// Whether the node is in the set.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, bit) = Self::word_bit(node);
        self.0[w] & bit != 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; WORDS]
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set's bits as a fixed word array (word `i` holds ids
    /// `64*i..64*i+63`). Used for canonical digests and compact logging.
    #[inline]
    pub fn words(&self) -> [u64; WORDS] {
        self.0
    }

    /// Union with another set.
    #[inline]
    pub fn union(self, other: SharerSet) -> SharerSet {
        SharerSet(std::array::from_fn(|i| self.0[i] | other.0[i]))
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn difference(self, other: SharerSet) -> SharerSet {
        SharerSet(std::array::from_fn(|i| self.0[i] & !other.0[i]))
    }

    /// If the set holds exactly one node, returns it.
    #[inline]
    pub fn sole_member(&self) -> Option<NodeId> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }

    /// Iterates the members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        let words = self.0;
        let mut w = 0usize;
        let mut bits = words[0];
        std::iter::from_fn(move || loop {
            if bits != 0 {
                let n = (w as u32 * 64 + bits.trailing_zeros()) as NodeId;
                bits &= bits - 1;
                return Some(n);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            bits = words[w];
        })
    }
}

impl FromIterator<NodeId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = SharerSet::EMPTY;
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl std::fmt::Display for SharerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = SharerSet::EMPTY;
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.sole_member(), Some(3));
        assert!(s.insert(15));
        assert_eq!(s.sole_member(), None);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.sole_member(), Some(15));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s: SharerSet = [9u8, 1, 4, 63, 0].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![0, 1, 4, 9, 63]);
    }

    #[test]
    fn union_and_difference() {
        let a: SharerSet = [1u8, 2, 3].into_iter().collect();
        let b: SharerSet = [3u8, 4].into_iter().collect();
        assert_eq!(a.union(b).len(), 4);
        let d = a.difference(b);
        assert!(d.contains(1) && d.contains(2) && !d.contains(3));
    }

    #[test]
    fn display_formats_members() {
        let s: SharerSet = [2u8, 5].into_iter().collect();
        assert_eq!(s.to_string(), "{2,5}");
    }

    #[test]
    fn high_ids_behave_like_low_ids() {
        let mut s = SharerSet::EMPTY;
        assert!(s.insert(200));
        assert!(s.contains(200) && !s.contains(72));
        assert_eq!(s.sole_member(), Some(200));
        assert!(s.insert(5));
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![5, 200]);
        assert_eq!(s.to_string(), "{5,200}");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn equal_sets_compare_and_hash_equal_across_history() {
        let mut big: SharerSet = [1u8, 255].into_iter().collect();
        assert!(big.remove(255));
        let small = SharerSet::singleton(1);
        assert_eq!(big, small, "equal sets must compare equal across history");
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &SharerSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&big), hash(&small));
    }

    #[test]
    fn set_algebra_spans_word_boundaries() {
        let a: SharerSet = [63u8, 64, 130].into_iter().collect();
        let b: SharerSet = [64u8, 7].into_iter().collect();
        let u = a.union(b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![7, 63, 64, 130]);
        let d = a.difference(b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![63, 130]);
        let high: SharerSet = [64u8, 130].into_iter().collect();
        assert_eq!(a.difference(high), SharerSet::singleton(63));
        let s = SharerSet::singleton(1).union(SharerSet::singleton(63));
        assert_eq!(s.words(), [(1u64 << 63) | 2, 0, 0, 0]);
    }

    #[test]
    fn words_lay_out_ids_by_word() {
        let small: SharerSet = [0u8, 63].into_iter().collect();
        assert_eq!(small.words(), [(1u64 << 63) | 1, 0, 0, 0]);
        let big: SharerSet = [0u8, 64, 255].into_iter().collect();
        assert_eq!(big.words(), [1, 1, 0, 1u64 << 63]);
    }

    #[test]
    fn every_node_id_is_representable_without_wrap() {
        // The acceptance property of the 64-node ceiling fix: no id of the
        // full NodeId range aliases another (the old u64 mask wrapped
        // `1 << node` in release builds, so 64 aliased 0, 65 aliased 1...).
        let mut s = SharerSet::EMPTY;
        for n in 0..=255u8 {
            assert!(s.insert(n), "id {n} must insert fresh");
        }
        assert_eq!(s.len(), 256);
        let members: Vec<NodeId> = s.iter().collect();
        assert_eq!(members, (0..=255u8).collect::<Vec<_>>());
        for n in (0..=255u8).rev() {
            assert!(s.remove(n));
        }
        assert!(s.is_empty());
        assert_eq!(s, SharerSet::EMPTY);
    }
}
