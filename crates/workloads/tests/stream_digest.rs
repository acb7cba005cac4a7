//! Stream identity: every item of every generator's streams, folded into
//! one FNV-1a digest and pinned. A change to how stream items are
//! represented or generated must leave every reference and barrier
//! unchanged, so the digests must not move. The commercial generators
//! record their processors' streams on as many threads as the host
//! offers, so the same pins must hold on every host; under `taskset -c 0`
//! they are generated with no helper thread.
//!
//! The fold reads items only through `decode`, so it states each item
//! independently of the item's internal form.

use dresar_types::{RefKind, StreamItem, Workload};
use dresar_workloads::{commercial, scientific};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// One item's fields: `(tag, address, kind, work, barrier id)`. The tag is
/// 0 for a reference and 1 for a barrier; a field the item lacks is 0.
fn decode(item: &StreamItem) -> (u8, u64, u8, u32, u32) {
    match item.decode() {
        dresar_types::ItemView::Ref(r) => (0, r.addr, (r.kind == RefKind::Write) as u8, r.work, 0),
        dresar_types::ItemView::Barrier(id) => (1, 0, 0, 0, id),
    }
}

fn fold(h: &mut u64, w: &Workload) {
    mix(h, w.name.as_bytes());
    mix(h, &(w.streams.len() as u32).to_le_bytes());
    for (pid, stream) in w.streams.iter().enumerate() {
        mix(h, &(stream.len() as u64).to_le_bytes());
        for (index, item) in stream.iter().enumerate() {
            let (tag, addr, kind, work, barrier) = decode(item);
            mix(h, &(pid as u32).to_le_bytes());
            mix(h, &(index as u64).to_le_bytes());
            mix(h, &[tag, kind]);
            mix(h, &addr.to_le_bytes());
            mix(h, &work.to_le_bytes());
            mix(h, &barrier.to_le_bytes());
        }
    }
}

#[test]
fn every_stream_matches_the_pinned_digest() {
    let workloads = [
        scientific::fft(16, 256),
        scientific::fft_six_step(16, 256),
        scientific::sor(16, 32, 2),
        scientific::tc(16, 16),
        scientific::fwa(16, 16),
        scientific::gauss(16, 16),
        // The benchmark's tiny sor256.
        scientific::sor(256, 256, 1),
        commercial::tpcc(16, 40_000, 1009),
        commercial::tpcd(16, 40_000, 1009),
    ];
    let mut h = FNV_OFFSET;
    for w in &workloads {
        fold(&mut h, w);
    }
    assert_eq!(h, 0x149b_94c3_4211_0a96, "stream digest moved: {h:#018x}");
}

#[test]
fn tpc_streams_at_uneven_processor_counts_match_the_pinned_digest() {
    // Processor counts that split unevenly over 2 or 4 generating threads,
    // with trace lengths that do not divide evenly among the processors.
    let mut h = FNV_OFFSET;
    for (processors, refs, seed) in
        [(1, 40_000, 7), (3, 39_999, 5), (7, 40_000, 1009), (64, 40_000, 3)]
    {
        fold(&mut h, &commercial::tpcc(processors, refs, seed));
        fold(&mut h, &commercial::tpcd(processors, refs, seed));
    }
    assert_eq!(h, 0x7ffe_5987_2faa_93eb, "uneven TPC stream digest moved: {h:#018x}");
}
