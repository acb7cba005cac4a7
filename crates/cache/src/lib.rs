//! # dresar-cache
//!
//! Set-associative cache models for the `dresar` CC-NUMA simulators.
//!
//! * [`set_assoc`] — a single set-associative array with true-LRU
//!   replacement and MSI line states.
//! * [`hierarchy`] — the two-level inclusive L1/L2 hierarchy of the paper's
//!   Table 2 (16 KB 2-way L1, 128 KB 4-way L2, shared 32-byte lines),
//!   including the external coherence operations the directory protocol
//!   needs (invalidate, downgrade-to-shared, dirty probes).
//!
//! The caches model *state*, not data payloads: the simulators track
//! coherence and timing, and the workload kernels compute on their own
//! arrays. This is the standard trace/execution-driven simulator split
//! (RSIM does the same for its L1/L2 MSHR models).

#![warn(missing_docs)]

pub mod hierarchy;
pub mod set_assoc;

pub use hierarchy::{AccessOutcome, CacheHierarchy, HierarchyStats};
pub use set_assoc::{LineState, SetAssocCache};
