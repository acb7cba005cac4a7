//! Per-block access histograms (Figure 2).
//!
//! Figure 2 of the paper plots, for TPC-C, the cumulative percentage of
//! read misses and cache-to-cache transfers over blocks sorted by
//! decreasing misses-per-block, demonstrating that ~10% of the blocks
//! account for ~88% of the CtoC transfers. [`BlockHistogram`] collects the
//! per-block counters and extracts that cumulative curve.

use dresar_types::BlockAddr;
use std::collections::HashMap;

/// Per-block miss/CtoC counters.
#[derive(Debug, Clone, Default)]
pub struct BlockHistogram {
    counts: HashMap<BlockAddr, (u64, u64)>, // (misses, ctocs)
}

/// One point of the cumulative distribution: after the top `block_rank`
/// blocks, what fraction of misses / CtoCs is covered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CumulativePoint {
    /// Rank bound (1-based): the top-`block_rank` blocks by miss count.
    pub block_rank: usize,
    /// Cumulative fraction of all read misses covered.
    pub miss_fraction: f64,
    /// Cumulative fraction of all CtoC transfers covered.
    pub ctoc_fraction: f64,
}

impl BlockHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read miss to `block`; `was_ctoc` marks a dirty read.
    pub fn record_miss(&mut self, block: BlockAddr, was_ctoc: bool) {
        let e = self.counts.entry(block).or_insert((0, 0));
        e.0 += 1;
        if was_ctoc {
            e.1 += 1;
        }
    }

    /// Number of distinct blocks touched by misses.
    pub fn blocks_touched(&self) -> usize {
        self.counts.len()
    }

    /// Total read misses recorded.
    pub fn total_misses(&self) -> u64 {
        self.counts.values().map(|&(m, _)| m).sum()
    }

    /// Total CtoC transfers recorded.
    pub fn total_ctocs(&self) -> u64 {
        self.counts.values().map(|&(_, c)| c).sum()
    }

    /// Per-block `(misses, ctocs)` by decreasing misses, ties broken by
    /// block address so the ranking never depends on hash-map order.
    fn ranked(&self) -> Vec<(u64, u64)> {
        let mut per_block: Vec<_> = self.counts.iter().map(|(&b, &mc)| (b, mc)).collect();
        per_block.sort_unstable_by_key(|&(b, (m, _))| (std::cmp::Reverse(m), b));
        per_block.into_iter().map(|(_, mc)| mc).collect()
    }

    /// The cumulative distribution over blocks sorted by decreasing misses
    /// (the paper's x-axis ordering), sampled at `samples` evenly spaced
    /// ranks (plus the final rank).
    pub fn cumulative(&self, samples: usize) -> Vec<CumulativePoint> {
        let per_block = self.ranked();
        let total_m = self.total_misses().max(1) as f64;
        let total_c = self.total_ctocs().max(1) as f64;

        let n = per_block.len();
        if n == 0 {
            return Vec::new();
        }
        let step = (n / samples.max(1)).max(1);
        let mut out = Vec::new();
        let mut cm = 0u64;
        let mut cc = 0u64;
        for (i, &(m, c)) in per_block.iter().enumerate() {
            cm += m;
            cc += c;
            let rank = i + 1;
            if rank % step == 0 || rank == n {
                out.push(CumulativePoint {
                    block_rank: rank,
                    miss_fraction: cm as f64 / total_m,
                    ctoc_fraction: cc as f64 / total_c,
                });
            }
        }
        out
    }

    /// Fraction of CtoC transfers covered by the top `frac` (0..1] of
    /// blocks — the paper's "10% of blocks account for 88% of CtoCs"
    /// statistic.
    pub fn ctoc_coverage_of_top(&self, frac: f64) -> f64 {
        let n = self.counts.len();
        if n == 0 {
            return 0.0;
        }
        let k = ((n as f64 * frac).ceil() as usize).clamp(1, n);
        let covered: u64 = self.ranked()[..k].iter().map(|&(_, c)| c).sum();
        covered as f64 / self.total_ctocs().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> BlockHistogram {
        let mut h = BlockHistogram::new();
        // One hot block with 90 ctoc misses, nine cold blocks with 1 clean
        // miss each.
        for _ in 0..90 {
            h.record_miss(BlockAddr(0), true);
        }
        for b in 1..10u64 {
            h.record_miss(BlockAddr(b), false);
        }
        h
    }

    #[test]
    fn totals() {
        let h = skewed();
        assert_eq!(h.blocks_touched(), 10);
        assert_eq!(h.total_misses(), 99);
        assert_eq!(h.total_ctocs(), 90);
    }

    #[test]
    fn top_10pct_covers_all_ctocs() {
        let h = skewed();
        assert!((h.ctoc_coverage_of_top(0.1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_monotone_and_complete() {
        let h = skewed();
        let pts = h.cumulative(5);
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[1].miss_fraction >= w[0].miss_fraction);
            assert!(w[1].ctoc_fraction >= w[0].ctoc_fraction);
            assert!(w[1].block_rank > w[0].block_rank);
        }
        let last = pts.last().unwrap();
        assert_eq!(last.block_rank, 10);
        assert!((last.miss_fraction - 1.0).abs() < 1e-12);
        assert!((last.ctoc_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equal_miss_counts_rank_by_block_address() {
        // Ten one-miss blocks; only the lowest address was a CtoC. Without
        // the address tie-break, hash-map order decides which ranks first.
        let mut h = BlockHistogram::new();
        for b in (0..10u64).rev() {
            h.record_miss(BlockAddr(b), b == 0);
        }
        assert_eq!(h.cumulative(10)[0].ctoc_fraction, 1.0);
        assert_eq!(h.ctoc_coverage_of_top(0.1), 1.0);
    }

    #[test]
    fn empty_histogram_is_empty() {
        let h = BlockHistogram::new();
        assert!(h.cumulative(10).is_empty());
        assert_eq!(h.ctoc_coverage_of_top(0.1), 0.0);
    }
}
