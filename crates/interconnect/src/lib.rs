//! # dresar-interconnect
//!
//! The bidirectional multistage interconnection network (BMIN) of the
//! paper's Figure 3: processors attach below stage 0, memory/directory
//! modules above the top stage, and every switch is a wormhole-routed
//! crossbar with two virtual channels per input, four-flit input FIFOs and
//! age-based arbitration (after SGI SPIDER / Intel Cavallino).
//!
//! * [`topology`] — the d-ary baseline/delta network: unique minimal paths,
//!   switch identities, and the route calculations every simulator shares.
//!   The *switch-directory placement invariant* (entries are only installed
//!   on the home→owner write-reply path, which later cleanup traffic
//!   provably re-traverses) is a property of this topology and is
//!   property-tested here.
//! * [`routes`] — routes as small `Copy` values (the endpoints and the
//!   switches crossed, derived from the endpoints and a turnaround switch)
//!   for forward, backward, switch-originated and processor-to-processor
//!   (turnaround) traffic.
//! * [`hop_model`] — the fast per-hop latency/contention model used for
//!   full-application sweeps.
//! * [`crossbar`] — the cycle-accurate flit-level crossbar switch (input
//!   FIFOs, virtual channels, age-based arbitration, wormhole streaming),
//!   used for validation and the DRESAR cycle-budget microbenchmarks.
//! * [`flit_net`] — a cycle-stepped network of [`crossbar`] switches for
//!   small-scale cross-checks of the hop model.

#![warn(missing_docs)]

pub mod crossbar;
pub mod flit_net;
pub mod hop_model;
pub mod link_index;
pub mod routes;
pub mod topology;

pub use crossbar::{ArbiterStats, Crossbar, Flit};
pub use flit_net::{Delivery, FlitNetwork};
pub use hop_model::{link_key, HopNetwork};
pub use link_index::LinkIndexer;
pub use routes::{Hop, LinkId, Route, RouteTable};
pub use topology::{Bmin, SwitchId};
