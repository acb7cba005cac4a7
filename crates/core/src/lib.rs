//! # dresar — DiRectory Embedded Switch ARchitecture
//!
//! A from-scratch reproduction of *"Using Switch Directories to Speed Up
//! Cache-to-Cache Transfers in CC-NUMA Multiprocessors"* (Iyer, Bhuyan,
//! Nanda; IPPS 2000).
//!
//! The paper's idea: crossbar switches of the CC-NUMA interconnect embed
//! small SRAM **switch directories** that capture block-ownership
//! information as `WriteReply` messages stream from a home memory back to a
//! writing processor. Later `ReadRequest`s that pass such a switch and find
//! the block **MODIFIED** are *sunk* at the switch and re-routed as
//! cache-to-cache transfer requests straight to the owner's cache — skipping
//! the remaining hops to the home node, the slow DRAM full-map directory
//! lookup, and the directory-controller occupancy. Coherence with the home
//! directory is restored by *marking* the owner's copyback/writeback with
//! the pids the switch served.
//!
//! This crate provides:
//!
//! * [`switchdir`] — the switch-directory device: the set-associative SRAM
//!   entry array ([`switchdir::SwitchDirectory`]), the protocol FSM of the
//!   paper's Figure 4 ([`switchdir::SwitchDirectory::snoop`]), the pending
//!   buffer that lets 8x8 switches meet the cycle budget (§4.3), and the
//!   port-scheduling model of §4.2.
//! * [`system`] — the execution-driven 16-node CC-NUMA simulator of the
//!   evaluation (Table 2): processors with release consistency and write
//!   buffers, inclusive L1/L2 MSI caches, full-map home directories,
//!   and the BMIN interconnect with a switch directory in every switch.
//!
//! ```
//! use dresar::system::{System, RunOptions};
//! use dresar_types::config::SystemConfig;
//! use dresar_types::{StreamItem, Workload};
//!
//! // Two processors ping-pong a block: reads after the remote write are
//! // dirty cache-to-cache transfers, which switch directories accelerate.
//! let wl = Workload {
//!     name: "pingpong".into(),
//!     streams: vec![
//!         vec![StreamItem::write(0, 1), StreamItem::barrier(0)],
//!         vec![StreamItem::barrier(0), StreamItem::read(0, 1)],
//!         vec![StreamItem::barrier(0)],
//!         vec![StreamItem::barrier(0)],
//!     ],
//! };
//! let mut cfg = SystemConfig::paper_table2();
//! cfg.nodes = 4; // keep the doctest snappy
//! cfg.switch.radix = 2;
//! let report = dresar::system::System::new(cfg, &wl).run(RunOptions::default());
//! assert_eq!(report.reads.dirty(), 1);
//! # let _ = report; let _: System; // type is exported
//! ```

#![warn(missing_docs)]

pub mod switchdir;
pub mod system;

pub use switchdir::{SdStats, SnoopAction, SwitchDirectory, TransientReadPolicy};
pub use system::{ExecutionReport, RunOptions, System};
