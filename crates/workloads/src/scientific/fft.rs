//! Parallel 1-D radix-2 FFT (Stockham autosort formulation).
//!
//! The Stockham variant ping-pongs between two arrays each stage, so every
//! processor writes only the output elements it owns while reading pairs of
//! input elements that scatter across the whole previous-stage array. At
//! the later (large-stride) stages those reads land in partitions freshly
//! written by *other* processors — exactly the communication-intensive
//! dirty-read behaviour the paper measures for FFT (60–70% of read misses
//! are cache-to-cache, Figure 1).

use crate::builder::{partition, StreamRecorder};
use dresar_types::{Addr, Workload};
use std::f64::consts::PI;

const ELEM: u64 = 16; // one complex number: two f64s
const BASE_A: Addr = 0x1000_0000;
const BASE_B: Addr = 0x2000_0000;
const SYNC: Addr = 0x2800_0000;

/// Complex number as a pair (re, im).
type C = (f64, f64);

#[inline]
fn c_add(a: C, b: C) -> C {
    (a.0 + b.0, a.1 + b.1)
}
#[inline]
fn c_sub(a: C, b: C) -> C {
    (a.0 - b.0, a.1 - b.1)
}
#[inline]
fn c_mul(a: C, b: C) -> C {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Runs the parallel FFT over a deterministic pseudo-input, returning the
/// recorded workload and the transform result (for verification).
pub fn fft_with_result(processors: usize, n: usize) -> (Workload, Vec<C>) {
    assert!(n.is_power_of_two() && n >= 2, "FFT size must be a power of two >= 2");
    assert!(processors >= 1);
    let mut rec = StreamRecorder::new(processors, 5);

    // Deterministic input signal; each processor initializes (writes) its
    // own partition — cold, conflict-free stores.
    let mut a: Vec<C> = (0..n)
        .map(|i| {
            let x = i as f64;
            ((x * 0.3).sin() + 0.25 * (x * 1.7).cos(), 0.0)
        })
        .collect();
    let mut b: Vec<C> = vec![(0.0, 0.0); n];
    for p in 0..processors {
        let (s, e) = partition(n, processors, p);
        for i in s..e {
            rec.write(p, BASE_A + i as u64 * ELEM);
        }
    }
    rec.sync_barrier(SYNC);

    // Stockham stages: x -> y, halving the butterfly group size `half`
    // and doubling the stride `s` each stage.
    let mut half = n / 2;
    let mut stride = 1usize;
    let mut src_is_a = true;
    while half >= 1 {
        let (src_base, dst_base) = if src_is_a { (BASE_A, BASE_B) } else { (BASE_B, BASE_A) };
        let theta0 = 2.0 * PI / (2.0 * half as f64);
        // Snapshot source (kernels run phase-parallel; sequential
        // generation is safe because writes only touch the destination).
        for p in 0..processors {
            let (out_s, out_e) = partition(n, processors, p);
            for k in out_s..out_e {
                // Decompose output index k = q + stride*(2p' + r).
                let q = k % stride;
                let rem = k / stride;
                let r = rem & 1;
                let pp = rem >> 1;
                let i0 = q + stride * pp;
                let i1 = q + stride * (pp + half);
                rec.read(p, src_base + i0 as u64 * ELEM);
                rec.read(p, src_base + i1 as u64 * ELEM);
                let (x, y) = if src_is_a { (&a, &mut b) } else { (&b, &mut a) };
                let c0 = x[i0];
                let c1 = x[i1];
                let w = {
                    let ang = -theta0 * pp as f64;
                    (ang.cos(), ang.sin())
                };
                y[k] = if r == 0 { c_add(c0, c1) } else { c_mul(c_sub(c0, c1), w) };
                rec.write(p, dst_base + k as u64 * ELEM);
            }
        }
        rec.sync_barrier(SYNC);
        half /= 2;
        stride *= 2;
        src_is_a = !src_is_a;
    }

    let result = if src_is_a { a } else { b };
    (rec.into_workload("fft"), result)
}

/// The FFT workload alone.
pub fn fft(processors: usize, n: usize) -> Workload {
    fft_with_result(processors, n).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(input: &[C]) -> Vec<C> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = (0.0, 0.0);
                for (j, &x) in input.iter().enumerate() {
                    let ang = -2.0 * PI * (k * j) as f64 / n as f64;
                    acc = c_add(acc, c_mul(x, (ang.cos(), ang.sin())));
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let n = 64;
        let input: Vec<C> = (0..n)
            .map(|i| {
                let x = i as f64;
                ((x * 0.3).sin() + 0.25 * (x * 1.7).cos(), 0.0)
            })
            .collect();
        let (_, got) = fft_with_result(4, n);
        let want = naive_dft(&input);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.0 - w.0).abs() < 1e-6 && (g.1 - w.1).abs() < 1e-6, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn stream_shape() {
        let (w, _) = fft_with_result(4, 256);
        assert!(w.validate().is_ok());
        // init writes + log2(256)=8 stages of 3 refs per element, plus
        // 9 sync barriers of (2 per proc + 1 flag write + P-1 flag reads).
        let barrier_refs = 9 * (2 * 4 + 1 + 3);
        assert_eq!(w.total_refs(), 256 + 8 * 256 * 3 + barrier_refs);
        // One barrier after init + one per stage.
        let barriers = w.streams[0].iter().filter(|i| i.is_barrier()).count();
        assert_eq!(barriers, 9);
    }

    #[test]
    fn works_with_single_processor() {
        let (w, r) = fft_with_result(1, 16);
        assert!(w.validate().is_ok());
        assert_eq!(r.len(), 16);
    }

    #[test]
    fn late_stages_read_across_partitions() {
        // With 4 processors and n=256, the last stage's reads must touch
        // addresses outside the reader's own quarter.
        let (w, _) = fft_with_result(4, 256);
        let own = |p: usize, addr: u64| {
            let i = ((addr & 0x0fff_ffff) / ELEM) as usize;
            let (s, e) = partition(256, 4, p);
            (s..e).contains(&i)
        };
        let mut cross_reads = 0usize;
        for (p, stream) in w.streams.iter().enumerate() {
            for item in stream {
                if let dresar_types::ItemView::Ref(r) = item.decode() {
                    if matches!(r.kind, dresar_types::RefKind::Read) && !own(p, r.addr) {
                        cross_reads += 1;
                    }
                }
            }
        }
        assert!(cross_reads > 500, "expected heavy cross-partition reads, got {cross_reads}");
    }
}
