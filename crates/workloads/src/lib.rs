//! # dresar-workloads
//!
//! Workload generators for the `dresar` simulators, reproducing the
//! paper's evaluation mix (§2, §5.1):
//!
//! * [`scientific`] — the five numerical kernels, implemented as *real*
//!   shared-memory computations whose every load/store to the shared arrays
//!   is recorded into per-processor reference streams (execution-driven in
//!   spirit, like the paper's RSIM runs):
//!   - Fast Fourier Transform ([`scientific::fft`]),
//!   - Successive Over-Relaxation ([`scientific::sor`]),
//!   - Transitive Closure ([`scientific::tc`]),
//!   - Floyd–Warshall all-pairs shortest paths ([`scientific::fwa`]),
//!   - Gaussian Elimination ([`scientific::gauss`]).
//! * [`commercial`] — synthetic TPC-C (OLTP) and TPC-D (DSS) memory-
//!   reference traces. The paper used proprietary IBM COMPASS traces; the
//!   generator is calibrated to the published characteristics instead (see
//!   DESIGN.md's substitution table): hot-block skew (Figure 2) and the
//!   38% / 62% dirty-read fractions (Figure 1).
//! * [`builder`] — the stream-recording substrate shared by all kernels.
//! * [`scale`] — paper-scale vs reduced vs test-size presets.

#![warn(missing_docs)]

pub mod builder;
pub mod commercial;
pub mod scale;
pub mod scientific;

pub use builder::StreamRecorder;
pub use scale::Scale;
