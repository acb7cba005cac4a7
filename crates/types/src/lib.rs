//! # dresar-types
//!
//! Shared vocabulary for the `dresar` reproduction of *"Using Switch
//! Directories to Speed Up Cache-to-Cache Transfers in CC-NUMA
//! Multiprocessors"* (Iyer, Bhuyan, Nanda; IPPS 2000).
//!
//! Every simulator crate in the workspace — the set-associative caches, the
//! full-map home directory, the BMIN interconnect, the DRESAR switch
//! directory, and the execution-/trace-driven system models — speaks in the
//! types defined here:
//!
//! * [`addr`] — byte addresses, cache-block addresses, node identities and
//!   the home-node mapping.
//! * [`msg`] — the coherence message vocabulary of the paper's Table 1 plus
//!   the ordinary data-carrying replies, and the [`msg::Message`] envelope
//!   that flows through the interconnect.
//! * [`sharers`] — a compact bit-vector sharer set (the "directory vector").
//! * [`config`] — configuration structs mirroring the paper's Table 2
//!   (execution-driven parameters) and Table 3 (trace-driven parameters),
//!   with validated presets.
//! * [`refstream`] — the memory-reference stream items produced by workload
//!   generators and consumed by the simulators.
//! * [`json`] — a dependency-free JSON tree, writer and parser with the
//!   [`ToJson`]/[`FromJson`] traits behind the `--json` telemetry surface.
//! * [`kvspec`] — the `key=value,...` spec syntax of fault plans and
//!   serve-tier chaos plans.
//! * [`protocol`] — the coherence-protocol family identifier
//!   (MSI/MESI/MOESI + the directoryless baseline).
//! * [`lru`] — the 32-bit LRU clock of the set-associative arrays, with
//!   order-preserving rank compression when it would wrap.
//! * [`rng`] — the small seeded deterministic RNG the workload generators
//!   and randomized tests draw from.
//! * [`runspec`] — the canonical run-request struct ([`RunSpec`]) and its
//!   stable FNV-1a content digest, the serving layer's cache key.

#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod fasthash;
pub mod json;
pub mod kvspec;
pub mod lru;
pub mod msg;
pub mod protocol;
pub mod refstream;
pub mod rng;
pub mod runspec;
pub mod sharers;

pub use addr::{Addr, BlockAddr, NodeId};
pub use config::{SystemConfig, TraceSimConfig, MAX_NODES};
pub use fasthash::{fnv1a, FastBuildHasher, FastHasher, FastMap, FastSet, FNV_OFFSET};
pub use json::{FromJson, JsonError, JsonValue, ObjBuilder, ToJson, SCHEMA_VERSION};
pub use msg::{Message, MsgType};
pub use protocol::Protocol;
pub use refstream::{ItemView, MemRef, RefKind, StreamItem, Workload};
pub use rng::SmallRng;
pub use runspec::RunSpec;
pub use sharers::SharerSet;

/// Simulation time, in cycles of the 200 MHz clock shared by the processor
/// core, the switch core and the link transmitters (paper §4.1 / Table 2).
pub type Cycle = u64;
