//! The 32-bit LRU clock shared by the set-associative arrays (the caches
//! and the switch directories).
//!
//! Each array stamps a way with the clock's next value when it uses it,
//! and picks the smallest stamp as its LRU victim. A 32-bit stamp keeps a
//! way at 16 bytes; [`next_stamp`] handles the clock that would wrap by
//! rank-compressing the live stamps first, so no comparison between live
//! ways ever changes.

/// Advances `clock` and returns the new stamp.
///
/// When `clock` is at `u32::MAX`, `live` (the stamps of the array's valid
/// ways) is rewritten to dense ranks `1..=k` in its existing order, equal
/// stamps keeping equal ranks, and the clock restarts at `k`. Invalid ways'
/// stamps are never compared, so they may keep any value.
pub fn next_stamp<'a, I>(clock: &mut u32, live: impl FnOnce() -> I) -> u32
where
    I: IntoIterator<Item = &'a mut u32>,
{
    if *clock == u32::MAX {
        let mut stamps: Vec<&mut u32> = live().into_iter().collect();
        stamps.sort_unstable_by_key(|s| **s);
        let mut rank = 0u32;
        let mut prev = None;
        for s in stamps {
            if prev != Some(*s) {
                prev = Some(*s);
                rank += 1;
            }
            *s = rank;
        }
        *clock = rank;
    }
    *clock += 1;
    *clock
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_up_without_touching_stamps() {
        let mut clock = 7;
        let mut stamps = [3u32, 5];
        assert_eq!(next_stamp(&mut clock, || stamps.iter_mut()), 8);
        assert_eq!(stamps, [3, 5]);
    }

    #[test]
    fn wrap_rank_compresses_in_order() {
        let mut clock = u32::MAX;
        let mut stamps = [u32::MAX - 3, 9, u32::MAX, 9, 400];
        assert_eq!(next_stamp(&mut clock, || stamps.iter_mut()), 5);
        assert_eq!(stamps, [3, 1, 4, 1, 2]);
        assert_eq!(clock, 5);
    }

    #[test]
    fn wrap_with_nothing_live_restarts_at_one() {
        let mut clock = u32::MAX;
        assert_eq!(next_stamp(&mut clock, std::iter::empty), 1);
    }
}
