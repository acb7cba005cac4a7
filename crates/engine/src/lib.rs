//! # dresar-engine
//!
//! A small, deterministic discrete-event simulation core shared by every
//! simulator in the workspace.
//!
//! * [`queue::EventQueue`] — the time-ordered event queue: a ring of
//!   one-cycle FIFO buckets for events due within 1024 cycles, and a binary
//!   heap for the few due later. Ties at the same cycle are broken by
//!   insertion order, so a simulation is a pure function of its inputs (a
//!   requirement for reproducing figures exactly across runs and machines).
//! * [`resource`] — busy-until resource models used for serialized units
//!   (links, directory controllers) and bank-interleaved units (DRAM).

#![warn(missing_docs)]

pub mod queue;
pub mod resource;

pub use queue::EventQueue;
pub use resource::{BankedResource, Resource};
