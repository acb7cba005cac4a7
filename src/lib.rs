//! Umbrella crate for the `dresar` workspace.
//!
//! This crate exists so that the repository root can host runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`) that exercise
//! the public APIs of every member crate together. It re-exports the member
//! crates under short names for convenience.

pub use dresar;
pub use dresar_cache as cache;
pub use dresar_directory as directory;
pub use dresar_engine as engine;
pub use dresar_faults as faults;
pub use dresar_interconnect as interconnect;
pub use dresar_server as server;
pub use dresar_stats as stats;
pub use dresar_trace_sim as trace_sim;
pub use dresar_types as types;
pub use dresar_workloads as workloads;
