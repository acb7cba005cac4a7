//! Microbenchmarks of the set-associative cache array at the paper's
//! geometries: the Table 2 L1 (16 KB, 2-way) and L2 (128 KB, 4-way) of
//! the execution-driven model, and the Table 3 cache (2 MB, 4-way) of the
//! trace-driven one.

use dresar_bench::harness::{bench, black_box};
use dresar_cache::{LineState, SetAssocCache};
use dresar_types::config::{CacheGeometry, SystemConfig, TraceSimConfig};
use dresar_types::BlockAddr;

fn geometries() -> [(&'static str, CacheGeometry); 3] {
    let table2 = SystemConfig::paper_table2();
    [
        ("l1_16k_2way", table2.l1),
        ("l2_128k_4way", table2.l2),
        ("table3_2m_4way", TraceSimConfig::paper_table3().cache),
    ]
}

/// A Fibonacci-hashed index in `0..n` (`n` a power of two), so
/// consecutive iterations scatter over the sets.
fn scatter(i: u64, n: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - n.trailing_zeros())
}

/// A cache with every way of every set holding a block: tags
/// `0..ways` in each set.
fn full(geom: CacheGeometry) -> SetAssocCache {
    let mut c = SetAssocCache::new(geom);
    let set_bits = geom.sets().trailing_zeros();
    for tag in 0..geom.ways as u64 {
        for set in 0..geom.sets() {
            c.insert(BlockAddr((tag << set_bits) | set), LineState::Shared);
        }
    }
    c
}

fn bench_new() {
    for (name, geom) in geometries() {
        bench(&format!("cache_new/{name}"), || {
            black_box(SetAssocCache::new(black_box(geom)));
        });
    }
}

/// Hits scattered over a resident footprint that fills every set.
fn bench_access_hit() {
    for (name, geom) in geometries() {
        let mut c = full(geom);
        let lines = geom.sets() * geom.ways as u64;
        let mut i = 0u64;
        bench(&format!("cache_access/hit_{name}"), || {
            let block = BlockAddr(scatter(i, lines));
            i += 1;
            black_box(c.access(block));
        });
    }
}

/// Misses in sets no block was ever inserted into: one resident block in
/// set 0, lookups everywhere else in the Table 3 cache.
fn bench_access_unwritten() {
    let geom = TraceSimConfig::paper_table3().cache;
    let mut c = SetAssocCache::new(geom);
    c.insert(BlockAddr(0), LineState::Shared);
    let half = geom.sets() / 2;
    let mut i = 0u64;
    bench("cache_access/miss_unwritten_table3_2m_4way", || {
        let block = BlockAddr(half + scatter(i, half));
        i += 1;
        black_box(c.access(block));
    });
}

/// Inserts of new tags into full sets, so every insert evicts.
fn bench_insert_evict() {
    for (name, geom) in geometries() {
        let mut c = full(geom);
        let sets = geom.sets();
        let set_bits = sets.trailing_zeros();
        let mut i = 0u64;
        bench(&format!("cache_insert/evict_{name}"), || {
            let tag = geom.ways as u64 + i;
            let block = BlockAddr((tag << set_bits) | scatter(i, sets));
            i += 1;
            black_box(c.insert(block, LineState::Modified));
        });
    }
}

fn main() {
    bench_new();
    bench_access_hit();
    bench_access_unwritten();
    bench_insert_evict();
}
