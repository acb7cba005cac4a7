//! Red-black Successive Over-Relaxation on a 2-D grid.
//!
//! The interior rows are block-partitioned; each half-sweep updates one
//! color in place, reading the four neighbours of the opposite color.
//! Rows interior to a partition stay cached by their owner, so the misses
//! that remain after warm-up are dominated by reads of the *halo* rows the
//! neighbouring processors keep re-writing — the producer-consumer pattern
//! behind SOR's high cache-to-cache fraction in Figure 1.

use crate::builder::{partition, StreamRecorder};
use dresar_types::{Addr, Workload};

// Grid elements are modeled as 4-byte floats: with the paper's 512x512
// grid each processor's partition then fits its 128 KB L2, so steady-state
// misses concentrate on the halo rows (the paper's CtoC-dominated SOR).
const ELEM: u64 = 4;
const BASE: Addr = 0x4000_0000;
const SYNC: Addr = 0x4800_0000;
const OMEGA: f64 = 1.5;

#[inline]
fn addr(n2: usize, i: usize, j: usize) -> Addr {
    BASE + ((i * n2 + j) as u64) * ELEM
}

/// Runs red-black SOR for `iters` full sweeps on an `n x n` interior grid
/// (with a fixed boundary ring), returning the workload and the final grid
/// (including boundary) for verification.
pub fn sor_with_result(processors: usize, n: usize, iters: usize) -> (Workload, Vec<f64>) {
    assert!(n >= 2 && processors >= 1);
    let n2 = n + 2;
    let mut rec = StreamRecorder::new(processors, 6);

    // Deterministic boundary/initial condition: hot left edge.
    let mut g = vec![0.0f64; n2 * n2];
    for i in 0..n2 {
        g[i * n2] = 100.0;
    }
    // Each processor initializes (writes) its own interior rows.
    for p in 0..processors {
        let (rs, re) = partition(n, processors, p);
        for i in rs + 1..re + 1 {
            for j in 1..=n {
                rec.write(p, addr(n2, i, j));
            }
        }
    }
    rec.sync_barrier(SYNC);

    for _ in 0..iters {
        for color in 0..2usize {
            for p in 0..processors {
                let (rs, re) = partition(n, processors, p);
                for i in rs + 1..re + 1 {
                    let j0 = 1 + ((i + color) % 2);
                    let mut j = j0;
                    while j <= n {
                        rec.read(p, addr(n2, i - 1, j));
                        rec.read(p, addr(n2, i + 1, j));
                        rec.read(p, addr(n2, i, j - 1));
                        rec.read(p, addr(n2, i, j + 1));
                        rec.read(p, addr(n2, i, j));
                        let stencil = (g[(i - 1) * n2 + j]
                            + g[(i + 1) * n2 + j]
                            + g[i * n2 + j - 1]
                            + g[i * n2 + j + 1])
                            / 4.0;
                        g[i * n2 + j] = (1.0 - OMEGA) * g[i * n2 + j] + OMEGA * stencil;
                        rec.write(p, addr(n2, i, j));
                        j += 2;
                    }
                }
            }
            rec.sync_barrier(SYNC);
        }
    }

    (rec.into_workload("sor"), g)
}

/// The SOR workload alone.
pub fn sor(processors: usize, n: usize, iters: usize) -> Workload {
    sor_with_result(processors, n, iters).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_independent_of_processor_count() {
        let (_, g1) = sor_with_result(1, 16, 3);
        let (_, g4) = sor_with_result(4, 16, 3);
        assert_eq!(g1, g4, "red-black ordering must make the result deterministic");
    }

    #[test]
    fn converges_toward_laplace_solution() {
        // With a 100-degree left edge and zero elsewhere, interior values
        // near the left edge must heat up monotonically with iterations.
        let (_, g_few) = sor_with_result(2, 16, 2);
        let (_, g_many) = sor_with_result(2, 16, 30);
        let n2 = 18;
        let probe = 8 * n2 + 2; // row 8, col 2 — near the hot edge
        assert!(g_many[probe] > g_few[probe]);
        assert!(g_many[probe] > 10.0, "got {}", g_many[probe]);
    }

    #[test]
    fn stream_shape() {
        let (w, _) = sor_with_result(4, 32, 2);
        assert!(w.validate().is_ok());
        // init: 32*32 writes; per full sweep: 32*32 cells x 6 refs; plus
        // 5 sync barriers of (2 per proc + 1 flag write + P-1 flag reads).
        let barrier_refs = 5 * (2 * 4 + 1 + 3);
        assert_eq!(w.total_refs(), 32 * 32 + 2 * 32 * 32 * 6 + barrier_refs);
        let barriers = w.streams[0].iter().filter(|i| i.is_barrier()).count();
        assert_eq!(barriers, 1 + 2 * 2);
    }

    #[test]
    fn halo_reads_cross_partitions() {
        let (w, _) = sor_with_result(4, 32, 1);
        let n2 = 34u64;
        // Processor 1 owns interior rows 9..=16 (partition of 32 over 4).
        let owns = |p: usize, row: u64| {
            let (rs, re) = partition(32, 4, p);
            (rs as u64 + 1..re as u64 + 1).contains(&row)
        };
        let mut cross = 0;
        for (p, s) in w.streams.iter().enumerate() {
            for item in s {
                if let dresar_types::ItemView::Ref(r) = item.decode() {
                    if matches!(r.kind, dresar_types::RefKind::Read) {
                        let row = (r.addr - BASE) / ELEM / n2;
                        if (1..=32).contains(&row) && !owns(p, row) {
                            cross += 1;
                        }
                    }
                }
            }
        }
        assert!(cross > 0, "halo reads must cross partitions");
    }
}
