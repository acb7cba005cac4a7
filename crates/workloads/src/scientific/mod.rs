//! The five scientific kernels of the paper's evaluation (§2, Table 2),
//! implemented as real computations that record their shared-memory
//! reference streams.
//!
//! Each kernel both *computes its actual result* (unit tests verify the
//! mathematics against independent implementations) and records every
//! load/store to the simulated shared arrays, phase-aligned with barriers —
//! the execution-driven substitution for the paper's RSIM runs described in
//! DESIGN.md.
//!
//! Sharing patterns (and hence the Figure 1 clean/dirty mix) by design:
//!
//! | Kernel | Pattern | Dirty-read behaviour |
//! |--------|---------|----------------------|
//! | FFT    | Stockham stages, all-to-all reads of the other buffer | most remote reads hit freshly written data → CtoC-dominated |
//! | SOR    | red-black grid, halo rows | partition-interior hits cache; misses are mostly neighbour halos → CtoC-dominated |
//! | TC     | Warshall pivot-row broadcast | first reader of a modified pivot row is dirty, the rest clean → moderate |
//! | FWA    | Floyd–Warshall pivot-row broadcast | as TC |
//! | GAUSS  | pivot row normalize + broadcast | as TC, shrinking active set |
//!
//! Two FFT formulations are provided: the per-stage global exchange
//! ([`fft`], used by the evaluation suite) and the transpose-based
//! six-step ([`fft_six_step`], the SPLASH-2 communication structure).
//! Both compute identical transforms (cross-checked in tests); they differ
//! in ownership-reuse distance, which the FFT ablation in
//! `examples/fft_variants.rs` exposes.

mod fft;
mod fft6;
mod fwa;
mod gauss;
mod sor;
mod tc;

pub use fft::{fft, fft_with_result};
pub use fft6::{fft_six_step, fft_six_step_with_result};
pub use fwa::{fwa, fwa_with_result};
pub use gauss::{gauss, gauss_with_result};
pub use sor::{sor, sor_with_result};
pub use tc::{tc, tc_with_result};
