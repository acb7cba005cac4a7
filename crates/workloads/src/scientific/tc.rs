//! Transitive Closure by Warshall's algorithm.
//!
//! Boolean adjacency matrix, one byte per entry; rows are cyclically
//! assigned to processors. Iteration `k` broadcasts row `k` (owned — and
//! recently rewritten — by processor `k mod P`) to every other processor:
//! the first reader of each modified pivot-row block takes a dirty
//! cache-to-cache transfer, subsequent readers find it clean after the
//! copyback, giving the moderate (15–30%) dirty fraction the paper reports
//! for TC.

use crate::builder::StreamRecorder;
use dresar_types::{Addr, Workload};

const BASE: Addr = 0x6000_0000;
const SYNC: Addr = 0x6800_0000;

#[inline]
fn addr(n: usize, i: usize, j: usize) -> Addr {
    BASE + (i * n + j) as u64
}

/// Deterministic sparse digraph: edge (i, j) present iff a hash condition
/// holds. Density tuned so the closure grows without saturating instantly.
fn seed_graph(n: usize) -> Vec<bool> {
    let mut adj = vec![false; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
                adj[i * n + j] = h.is_multiple_of(37);
            }
        }
    }
    // A ring so the closure is eventually rich.
    for i in 0..n {
        adj[i * n + (i + 1) % n] = true;
    }
    adj
}

/// Runs parallel Warshall transitive closure, returning the workload and
/// the closure matrix for verification.
pub fn tc_with_result(processors: usize, n: usize) -> (Workload, Vec<bool>) {
    assert!(n >= 2 && processors >= 1);
    let mut rec = StreamRecorder::new(processors, 3);
    let mut adj = seed_graph(n);

    // Each processor writes its (cyclic) rows during initialization.
    for i in 0..n {
        let p = i % processors;
        for j in 0..n {
            rec.write(p, addr(n, i, j));
        }
    }
    rec.sync_barrier(SYNC);

    for k in 0..n {
        for i in 0..n {
            let p = i % processors;
            rec.read(p, addr(n, i, k));
            if adj[i * n + k] {
                for j in 0..n {
                    rec.read(p, addr(n, k, j));
                    rec.read(p, addr(n, i, j));
                    if adj[k * n + j] && !adj[i * n + j] {
                        adj[i * n + j] = true;
                        rec.write(p, addr(n, i, j));
                    }
                }
            }
        }
        rec.sync_barrier(SYNC);
    }

    (rec.into_workload("tc"), adj)
}

/// The TC workload alone.
pub fn tc(processors: usize, n: usize) -> Workload {
    tc_with_result(processors, n).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference closure by BFS from every vertex.
    fn bfs_closure(n: usize, adj: &[bool]) -> Vec<bool> {
        let mut out = vec![false; n * n];
        for s in 0..n {
            let mut stack = vec![s];
            let mut seen = vec![false; n];
            while let Some(u) = stack.pop() {
                for v in 0..n {
                    if adj[u * n + v] && !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            for v in 0..n {
                out[s * n + v] = seen[v];
            }
        }
        out
    }

    #[test]
    fn closure_matches_bfs() {
        let n = 24;
        let (_, got) = tc_with_result(4, n);
        let want = bfs_closure(n, &seed_graph(n));
        assert_eq!(got, want);
    }

    #[test]
    fn result_independent_of_processor_count() {
        let (_, a) = tc_with_result(1, 20);
        let (_, b) = tc_with_result(7, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_is_valid_and_barriered_per_k() {
        let (w, _) = tc_with_result(4, 16);
        assert!(w.validate().is_ok());
        let barriers = w.streams[0].iter().filter(|i| i.is_barrier()).count();
        assert_eq!(barriers, 1 + 16);
    }

    #[test]
    fn pivot_rows_are_read_by_non_owners() {
        let n = 16;
        let procs = 4;
        let (w, _) = tc_with_result(procs, n);
        let mut foreign_pivot_reads = 0usize;
        for (p, s) in w.streams.iter().enumerate() {
            for item in s {
                if let dresar_types::ItemView::Ref(r) = item.decode() {
                    if matches!(r.kind, dresar_types::RefKind::Read) {
                        let idx = (r.addr - BASE) as usize;
                        let row = idx / n;
                        if row % procs != p {
                            foreign_pivot_reads += 1;
                        }
                    }
                }
            }
        }
        assert!(foreign_pivot_reads > 0);
    }
}
