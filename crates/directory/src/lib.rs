//! # dresar-directory
//!
//! The full-map home-node directory of the CC-NUMA machine (paper §3.2):
//! every block's home keeps a bit vector of sharers, or the pid of the one
//! owner holding the block Modified. The directory serializes conflicting
//! transactions per block with a bounded pending queue and supports the
//! paper's switch-directory extension — *marked* copyback/writeback messages
//! carrying extra sharer pids collected by switch directories, which the
//! home folds into the vector ("a minor modification in the directory
//! controller", §3.2).
//!
//! This crate is pure protocol logic with no timing. Its one entry point,
//! [`HomeDirectory::handle`], takes a block and the [`Request`] that
//! arrived for it and returns an [`Outcome`]: at most one [`DirAction`],
//! which the timed simulators (in `dresar` and `dresar-trace-sim`) turn
//! into messages with DRAM latency and controller occupancy attached, and
//! the parked requests to handle again. Keeping the FSM pure makes it
//! exhaustively testable.

#![warn(missing_docs)]

pub mod home;

pub use home::{DirAction, DirError, DirState, DirStats, HomeDirectory, Outcome, Request};
