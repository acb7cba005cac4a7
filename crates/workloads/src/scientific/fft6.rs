//! Six-step (Bailey / SPLASH-2-style) parallel FFT.
//!
//! For `n = r*c` the transform factors into: transpose, `r`-point FFTs
//! along rows, twiddle scaling, transpose, `c`-point FFTs along rows, and
//! a final transpose. The row FFTs are entirely *local* to the processor
//! owning the rows (and cache-resident), so all communication concentrates
//! in the three transposes — each an all-to-all where every processor
//! reads blocks *freshly written* by every other processor. That is the
//! communication structure of the SPLASH FFT the paper ran on RSIM: short
//! ownership-reuse distances that switch directories capture well, unlike
//! the per-stage global exchange of the plain Stockham formulation in
//! [`super::fft`]. Both are exported; the evaluation suite runs the Stockham
//! one, and `examples/fft_variants.rs` compares the two.
//!
//! Row FFT references are recorded as a streaming read+write of the row
//! with the butterfly arithmetic charged as per-element work — the
//! butterflies themselves run register/L1-resident on a real machine.

use crate::builder::{partition, StreamRecorder};
use dresar_types::{Addr, Workload};
use std::f64::consts::PI;

const ELEM: u64 = 16;
const BASE_A: Addr = 0x1000_0000;
const BASE_B: Addr = 0x1800_0000;
const SYNC: Addr = 0x2C00_0000;

type C = (f64, f64);

#[inline]
fn c_mul(a: C, b: C) -> C {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Sequential radix-2 Stockham FFT on a scratch buffer (used for the local
/// row transforms; verified against the naive DFT in tests).
fn stockham_seq(data: &mut [C]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let mut scratch = vec![(0.0, 0.0); n];
    let (mut half, mut stride) = (n / 2, 1usize);
    let mut in_data = true; // current source
    while half >= 1 {
        let theta0 = PI / half as f64;
        {
            let (src, dst): (&[C], &mut [C]) =
                if in_data { (data, &mut scratch) } else { (&scratch, data) };
            for (k, d) in dst.iter_mut().enumerate() {
                let q = k % stride;
                let rem = k / stride;
                let r = rem & 1;
                let p = rem >> 1;
                let c0 = src[q + stride * p];
                let c1 = src[q + stride * (p + half)];
                *d = if r == 0 {
                    (c0.0 + c1.0, c0.1 + c1.1)
                } else {
                    let ang = -theta0 * p as f64;
                    c_mul((c0.0 - c1.0, c0.1 - c1.1), (ang.cos(), ang.sin()))
                };
            }
        }
        half /= 2;
        stride *= 2;
        in_data = !in_data;
    }
    if !in_data {
        data.copy_from_slice(&scratch);
    }
}

/// Address of matrix element (row, col) in a row-major `rows x cols` view.
#[inline]
fn maddr(base: Addr, cols: usize, row: usize, col: usize) -> Addr {
    base + ((row * cols + col) as u64) * ELEM
}

/// Runs the six-step FFT over the same deterministic input as
/// [`super::fft`], returning the workload and the transform result.
///
/// `n` must be a power of four (so the matrix view is square).
pub fn fft_six_step_with_result(processors: usize, n: usize) -> (Workload, Vec<C>) {
    assert!(
        n >= 16 && n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2),
        "n must be a power of 4"
    );
    let r = 1usize << (n.trailing_zeros() / 2); // rows = cols = sqrt(n)
    let c = r;
    let mut rec = StreamRecorder::new(processors, 4);
    let fft_work = 5 * r.trailing_zeros().max(1);

    // The actual data: `a` holds the natural-order array, `b` is scratch.
    let mut a: Vec<C> = (0..n)
        .map(|i| {
            let x = i as f64;
            ((x * 0.3).sin() + 0.25 * (x * 1.7).cos(), 0.0)
        })
        .collect();
    let mut b: Vec<C> = vec![(0.0, 0.0); n];

    // Initialization: each processor writes its rows of the r x c view.
    for p in 0..processors {
        let (rs, re) = partition(r, processors, p);
        for i in rs..re {
            for j in 0..c {
                rec.write(p, maddr(BASE_A, c, i, j));
            }
        }
    }
    rec.sync_barrier(SYNC);

    // A transpose helper: dst[i][j] = src[j][i]; each processor writes its
    // own destination rows, reading columns scattered over every source
    // row owner (the all-to-all).
    let transpose = |rec: &mut StreamRecorder,
                     src_base: Addr,
                     dst_base: Addr,
                     src: &Vec<C>,
                     dst: &mut Vec<C>,
                     dim: usize| {
        for p in 0..processors {
            let (rs, re) = partition(dim, processors, p);
            for i in rs..re {
                for j in 0..dim {
                    rec.read(p, maddr(src_base, dim, j, i));
                    dst[i * dim + j] = src[j * dim + i];
                    rec.write(p, maddr(dst_base, dim, i, j));
                }
            }
        }
        rec.sync_barrier(SYNC);
    };

    // Step 1: transpose A -> B.
    transpose(&mut rec, BASE_A, BASE_B, &a, &mut b, r);

    // Step 2: r-point FFTs on the rows of B (local).
    for p in 0..processors {
        let (rs, re) = partition(r, processors, p);
        for i in rs..re {
            for j in 0..c {
                rec.read_w(p, maddr(BASE_B, c, i, j), fft_work);
            }
            let mut row: Vec<C> = b[i * c..(i + 1) * c].to_vec();
            stockham_seq(&mut row);
            b[i * c..(i + 1) * c].copy_from_slice(&row);
            for j in 0..c {
                rec.write(p, maddr(BASE_B, c, i, j));
            }
        }
    }
    rec.sync_barrier(SYNC);

    // Step 3: twiddle scaling B[j2][k1] *= W^(j2*k1) (local).
    for p in 0..processors {
        let (rs, re) = partition(r, processors, p);
        for j2 in rs..re {
            for k1 in 0..c {
                rec.read(p, maddr(BASE_B, c, j2, k1));
                let ang = -2.0 * PI * (j2 * k1) as f64 / n as f64;
                b[j2 * c + k1] = c_mul(b[j2 * c + k1], (ang.cos(), ang.sin()));
                rec.write(p, maddr(BASE_B, c, j2, k1));
            }
        }
    }
    rec.sync_barrier(SYNC);

    // Step 4: transpose B -> A.
    transpose(&mut rec, BASE_B, BASE_A, &b, &mut a, r);

    // Step 5: c-point FFTs on the rows of A (local).
    for p in 0..processors {
        let (rs, re) = partition(r, processors, p);
        for i in rs..re {
            for j in 0..c {
                rec.read_w(p, maddr(BASE_A, c, i, j), fft_work);
            }
            let mut row: Vec<C> = a[i * c..(i + 1) * c].to_vec();
            stockham_seq(&mut row);
            a[i * c..(i + 1) * c].copy_from_slice(&row);
            for j in 0..c {
                rec.write(p, maddr(BASE_A, c, i, j));
            }
        }
    }
    rec.sync_barrier(SYNC);

    // Step 6: transpose A -> B; B now holds X in natural order
    // (X[k1 + k2*r] = A[k1][k2]).
    transpose(&mut rec, BASE_A, BASE_B, &a, &mut b, r);

    (rec.into_workload("fft6"), b)
}

/// The six-step FFT workload alone.
pub fn fft_six_step(processors: usize, n: usize) -> Workload {
    fft_six_step_with_result(processors, n).0
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
                    acc = (
                        acc.0 + x.0 * ang.cos() - x.1 * ang.sin(),
                        acc.1 + x.0 * ang.sin() + x.1 * ang.cos(),
                    );
                }
                acc
            })
            .collect()
    }

    fn input(n: usize) -> Vec<C> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                ((x * 0.3).sin() + 0.25 * (x * 1.7).cos(), 0.0)
            })
            .collect()
    }

    #[test]
    fn stockham_seq_matches_naive() {
        let mut d = input(32);
        let want = naive_dft(&d);
        stockham_seq(&mut d);
        for (g, w) in d.iter().zip(&want) {
            assert!((g.0 - w.0).abs() < 1e-8 && (g.1 - w.1).abs() < 1e-8);
        }
    }

    #[test]
    fn six_step_matches_naive_dft() {
        let n = 64;
        let (_, got) = fft_six_step_with_result(4, n);
        let want = naive_dft(&input(n));
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g.0 - w.0).abs() < 1e-6 && (g.1 - w.1).abs() < 1e-6, "k={k}: {g:?} vs {w:?}");
        }
    }

    #[test]
    fn six_step_matches_stockham_parallel() {
        let n = 256;
        let (_, six) = fft_six_step_with_result(4, n);
        let (_, stock) = super::super::fft::fft_with_result(4, n);
        for (g, w) in six.iter().zip(&stock) {
            assert!((g.0 - w.0).abs() < 1e-6 && (g.1 - w.1).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_non_power_of_four() {
        let r = std::panic::catch_unwind(|| fft_six_step(4, 128));
        assert!(r.is_err());
    }

    #[test]
    fn stream_is_valid_and_compact() {
        let (w, _) = fft_six_step_with_result(4, 256);
        assert!(w.validate().is_ok());
        // ~12n refs (init n + 3 transposes x 2n + 2 row-FFT passes x 2n +
        // twiddle 2n) plus barrier traffic: far leaner than the per-stage
        // Stockham stream.
        assert!(w.total_refs() < 15 * 256, "got {}", w.total_refs());
    }

    #[test]
    fn transposes_read_across_partitions() {
        let (w, _) = fft_six_step_with_result(4, 256);
        // With square 16x16 views and 4 procs, each transpose's reads hit
        // all row owners.
        let mut cross = 0usize;
        for (p, stream) in w.streams.iter().enumerate() {
            for item in stream {
                if let dresar_types::ItemView::Ref(r) = item.decode() {
                    if matches!(r.kind, dresar_types::RefKind::Read)
                        && r.addr >= BASE_A
                        && r.addr < SYNC
                    {
                        let idx = ((r.addr & 0x07FF_FFFF) / ELEM) as usize;
                        let row = idx / 16;
                        let (rs, re) = partition(16, 4, p);
                        if !(rs..re).contains(&row) {
                            cross += 1;
                        }
                    }
                }
            }
        }
        assert!(cross > 100, "transposes must read foreign rows, got {cross}");
    }
}
