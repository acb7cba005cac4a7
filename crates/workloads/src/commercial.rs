//! Synthetic commercial workloads (TPC-C / TPC-D substitutes).
//!
//! The paper drove its trace simulator with proprietary IBM COMPASS traces
//! of TPC-C (DB2, 1 GB) and TPC-D. Those traces are not available, so this
//! module synthesizes reference streams calibrated to the *published*
//! characteristics the switch-directory result depends on:
//!
//! * **Footprint & skew** (Figure 2): a ~130K-block footprint at 16M
//!   references, with a log-uniform popularity distribution over the
//!   "communication intensive" blocks so that ~10% of blocks attract the
//!   bulk of the cache-to-cache transfers.
//! * **Dirty-read mix** (Figure 1): TPC-C ≈ 38% of read misses serviced
//!   cache-to-cache, TPC-D ≈ 62%. Dirty reads are produced by two
//!   mechanisms: *migratory* blocks (read-modify-write by one processor at
//!   a time — OLTP row/index updates) and *exchange* blocks (written by one
//!   processor, scanned by a neighbour — DSS temp partitions).
//!
//! The access-class mix per workload is the tunable surface; the presets
//! [`tpcc`] and [`tpcd`] encode mixes that land in the paper's bands on the
//! Table 3 trace simulator (asserted by `dresar-trace-sim`'s tests).

use crate::builder::StreamRecorder;
use dresar_types::rng::SmallRng;
use dresar_types::{Addr, Workload};

const BLOCK: u64 = 32;
const SHARED_BASE: Addr = 0xA000_0000;
const PRIVATE_BASE: Addr = 0xE000_0000;

/// Access-class mix (fractions must sum to <= 1; the remainder is private
/// traffic).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Fraction of references to migratory (read-modify-write) blocks.
    pub migratory: f64,
    /// Fraction of references to producer-consumer exchange blocks.
    pub exchange: f64,
    /// Fraction of references to read-mostly shared blocks.
    pub shared_ro: f64,
    /// Probability a migratory access is the modifying store of its burst.
    pub migratory_write: f64,
    /// Scan-style exchange: consumers walk the producer's partition
    /// *sequentially* (DSS table scans) instead of re-visiting hot blocks.
    /// Long reuse distances defeat small switch directories — the reason
    /// the paper's TPC-D benefits far less than TPC-C.
    pub exchange_scan: bool,
    /// Fraction of exchange accesses that *produce* (write) rather than
    /// consume; higher values keep scanned data freshly dirty.
    pub produce_frac: f64,
    /// Instruction work attached to each reference.
    pub work: u32,
}

/// Full generator parameters.
#[derive(Debug, Clone)]
pub struct CommercialParams {
    /// Workload name ("tpcc" / "tpcd").
    pub name: String,
    /// Number of processors.
    pub processors: usize,
    /// Total references across all processors.
    pub total_refs: usize,
    /// Distinct shared blocks touched (scales with trace length).
    pub footprint_blocks: usize,
    /// Access-class mix.
    pub mix: Mix,
    /// RNG seed (the generator is deterministic given the seed).
    pub seed: u64,
}

impl CommercialParams {
    /// The TPC-C (OLTP) preset: update-heavy, migratory-dominated sharing.
    pub fn tpcc(processors: usize, total_refs: usize, seed: u64) -> Self {
        CommercialParams {
            name: "tpcc".into(),
            processors,
            total_refs,
            footprint_blocks: (total_refs / 120).max(4096),
            mix: Mix {
                migratory: 0.18,
                exchange: 0.04,
                shared_ro: 0.24,
                migratory_write: 0.45,
                exchange_scan: false,
                produce_frac: 0.35,
                work: 24,
            },
            seed,
        }
    }

    /// The TPC-D (DSS) preset: scan-heavy over freshly produced partitions,
    /// giving the higher dirty fraction the paper measured.
    pub fn tpcd(processors: usize, total_refs: usize, seed: u64) -> Self {
        CommercialParams {
            name: "tpcd".into(),
            processors,
            total_refs,
            footprint_blocks: (total_refs / 45).max(4096),
            mix: Mix {
                migratory: 0.05,
                exchange: 0.40,
                shared_ro: 0.04,
                migratory_write: 0.50,
                exchange_scan: true,
                produce_frac: 0.50,
                work: 30,
            },
            seed,
        }
    }
}

/// Log-uniform block rank: dense near 0, sparse toward `n` — the skew that
/// concentrates cache-to-cache transfers on a small hot set (Figure 2).
#[inline]
fn skewed_rank(rng: &mut SmallRng, n: usize) -> usize {
    let u: f64 = rng.gen();
    let r = ((n as f64).powf(u) - 1.0) as usize;
    r.min(n - 1)
}

/// Generates the workload.
pub fn generate(params: &CommercialParams) -> Workload {
    assert!(params.processors >= 1 && params.total_refs > 0);
    let mut rec = StreamRecorder::new(params.processors, params.mix.work);
    let per_proc = params.total_refs / params.processors;

    // Shared region layout: migratory blocks first, then exchange rings,
    // then read-mostly; the remainder of the footprint backs private data.
    let shared_blocks = (params.footprint_blocks / 2).max(1024);
    let migratory_blocks = shared_blocks / 4;
    // Scan-style workloads stream over a region far larger than any cache.
    let exchange_blocks =
        if params.mix.exchange_scan { shared_blocks / 2 } else { shared_blocks / 4 };
    let shared_ro_blocks = shared_blocks - migratory_blocks - exchange_blocks;
    let private_blocks = (params.footprint_blocks - shared_blocks) / params.processors.max(1);

    let mig_addr = |b: usize| SHARED_BASE + (b as u64) * BLOCK;
    let exch_addr = |b: usize| SHARED_BASE + ((migratory_blocks + b) as u64) * BLOCK;
    let ro_addr =
        |b: usize| SHARED_BASE + ((migratory_blocks + exchange_blocks + b) as u64) * BLOCK;
    let priv_addr =
        |p: usize, b: usize| PRIVATE_BASE + ((p * private_blocks.max(1) + b) as u64) * BLOCK;

    let m = params.mix;
    for p in 0..params.processors {
        let mut rng =
            SmallRng::seed_from_u64(params.seed ^ (p as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Sequential cursors for scan-style exchange (one per processor).
        // The consumer trails the producer by half the region: the data is
        // still dirty when scanned, but the ownership hint was installed
        // tens of thousands of insertions ago — far beyond any switch
        // directory's reach (the paper's TPC-D behaviour).
        let mut scan_cursor = p * 37 + exchange_blocks / 2;
        let mut produce_cursor = p * 13;
        for _ in 0..per_proc {
            let class: f64 = rng.gen();
            if class < m.migratory {
                // Migratory burst element: mostly read+modify of a hot
                // block another processor touched last.
                let b = skewed_rank(&mut rng, migratory_blocks);
                let a = mig_addr(b);
                rec.read(p, a);
                if rng.gen::<f64>() < m.migratory_write {
                    rec.write(p, a);
                }
            } else if class < m.migratory + m.exchange {
                // Producer-consumer ring: this processor consumes blocks
                // its ring predecessor produces, and occasionally produces
                // its own partition slice.
                let produce = rng.gen::<f64>() < m.produce_frac;
                if m.exchange_scan {
                    // DSS-style sequential scan: march through the region
                    // with long reuse distances.
                    if produce {
                        produce_cursor += 1;
                        let own = produce_cursor * params.processors + p;
                        rec.write(p, exch_addr(own % exchange_blocks));
                    } else {
                        scan_cursor += 1;
                        let pred = (p + params.processors - 1) % params.processors;
                        let theirs = scan_cursor * params.processors + pred;
                        rec.read(p, exch_addr(theirs % exchange_blocks));
                    }
                } else {
                    let b = skewed_rank(&mut rng, exchange_blocks);
                    if produce {
                        let own = (b / params.processors) * params.processors + p;
                        rec.write(p, exch_addr(own % exchange_blocks));
                    } else {
                        let pred = (p + params.processors - 1) % params.processors;
                        let theirs = (b / params.processors) * params.processors + pred;
                        rec.read(p, exch_addr(theirs % exchange_blocks));
                    }
                }
            } else if class < m.migratory + m.exchange + m.shared_ro {
                let b = skewed_rank(&mut rng, shared_ro_blocks);
                rec.read(p, ro_addr(b));
            } else {
                // Private traffic: skewed within the processor's region,
                // mixed reads/writes.
                let b = skewed_rank(&mut rng, private_blocks.max(1));
                let a = priv_addr(p, b);
                if rng.gen::<f64>() < 0.25 {
                    rec.write(p, a);
                } else {
                    rec.read(p, a);
                }
            }
        }
    }
    rec.into_workload(params.name.clone())
}

/// TPC-C preset workload.
pub fn tpcc(processors: usize, total_refs: usize, seed: u64) -> Workload {
    generate(&CommercialParams::tpcc(processors, total_refs, seed))
}

/// TPC-D preset workload.
pub fn tpcd(processors: usize, total_refs: usize, seed: u64) -> Workload {
    generate(&CommercialParams::tpcd(processors, total_refs, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::{ItemView, RefKind};

    #[test]
    fn generates_requested_volume() {
        let w = tpcc(16, 32_000, 1);
        assert!(w.validate().is_ok());
        // Migratory RMWs add extra writes, so >= requested.
        assert!(w.total_refs() >= 32_000, "got {}", w.total_refs());
        assert_eq!(w.streams.len(), 16);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tpcd(8, 10_000, 7);
        let b = tpcd(8, 10_000, 7);
        assert_eq!(a.streams, b.streams);
        let c = tpcd(8, 10_000, 8);
        assert_ne!(a.streams, c.streams);
    }

    #[test]
    fn tpcd_scans_touch_more_distinct_shared_blocks() {
        // DSS scans stream across the exchange region, so TPC-D's shared
        // reads cover far more distinct blocks than TPC-C's hot-set
        // revisits — the structural difference behind their Figure 8 gap.
        let distinct_shared_read_blocks = |w: &Workload| {
            w.streams
                .iter()
                .flatten()
                .filter_map(|i| match i.decode() {
                    ItemView::Ref(r)
                        if matches!(r.kind, RefKind::Read)
                            && r.addr >= SHARED_BASE
                            && r.addr < PRIVATE_BASE =>
                    {
                        Some(r.addr / BLOCK)
                    }
                    _ => None,
                })
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let shared_reads = |w: &Workload| {
            w.streams
                .iter()
                .flatten()
                .filter(|i| {
                    matches!(i.decode(), ItemView::Ref(r)
                        if matches!(r.kind, RefKind::Read)
                            && r.addr >= SHARED_BASE && r.addr < PRIVATE_BASE)
                })
                .count()
        };
        let c = tpcc(8, 400_000, 3);
        let d = tpcd(8, 400_000, 3);
        let revisit_c = shared_reads(&c) as f64 / distinct_shared_read_blocks(&c) as f64;
        let revisit_d = shared_reads(&d) as f64 / distinct_shared_read_blocks(&d) as f64;
        assert!(
            revisit_c > 1.5 * revisit_d,
            "OLTP must revisit shared blocks far more than DSS scans: {revisit_c:.1} vs {revisit_d:.1}"
        );
    }

    #[test]
    fn accesses_are_skewed() {
        let w = tpcc(4, 40_000, 5);
        let mut counts = std::collections::HashMap::<u64, u64>::new();
        for s in &w.streams {
            for i in s {
                if let ItemView::Ref(r) = i.decode() {
                    if r.addr >= SHARED_BASE && r.addr < PRIVATE_BASE {
                        *counts.entry(r.addr / BLOCK).or_default() += 1;
                    }
                }
            }
        }
        let total: u64 = counts.values().sum();
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top10 = v.len().div_ceil(10);
        let covered: u64 = v[..top10].iter().sum();
        assert!(
            covered as f64 / total as f64 > 0.5,
            "top 10% of blocks must take >50% of shared accesses, got {:.2}",
            covered as f64 / total as f64
        );
    }

    #[test]
    fn private_regions_do_not_overlap() {
        let w = tpcc(4, 20_000, 9);
        let mut owners = std::collections::HashMap::<u64, usize>::new();
        for (p, s) in w.streams.iter().enumerate() {
            for i in s {
                if let ItemView::Ref(r) = i.decode() {
                    if r.addr >= PRIVATE_BASE {
                        let prev = owners.insert(r.addr / BLOCK, p);
                        assert!(prev.is_none() || prev == Some(p), "private block shared");
                    }
                }
            }
        }
    }
}
