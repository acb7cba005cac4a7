//! Hop-level network timing model.
//!
//! Used by the full-system simulator for application-scale runs: each link
//! is a serialized [`Resource`] booked for the message's full serialization
//! time (`flits x link_cycles_per_flit`), and each switch traversal adds the
//! crossbar core delay. Wormhole pipelining is modeled by advancing the
//! *header* one flit-time per link while the tail lags `(flits-1)` flit
//! times behind — the standard analytic wormhole latency, plus real queuing
//! delays from link contention.
//!
//! The flit-level model in [`crate::flit_net`] cross-checks this
//! approximation on small batches (see `tests/fidelity_crosscheck.rs`).

use crate::link_index::LinkIndexer;
use crate::routes::LinkId;
use dresar_engine::Resource;
use dresar_obs::{LinkKey, Probe};
use dresar_types::config::SwitchConfig;
use dresar_types::msg::MsgType;
use dresar_types::Cycle;

/// Packs a [`LinkId`] into the flat [`LinkKey`] the observability layer
/// uses: a variant tag in bits 32.. and the variant's fields below.
#[allow(clippy::identity_op)] // `0u64 << 32` keeps the variant tags visually parallel
pub fn link_key(link: LinkId) -> LinkKey {
    let k = match link {
        LinkId::ProcUp(n) => (0u64 << 32) | n as u64,
        LinkId::ProcDown(n) => (1u64 << 32) | n as u64,
        LinkId::MemUp(n) => (2u64 << 32) | n as u64,
        LinkId::MemDown(n) => (3u64 << 32) | n as u64,
        LinkId::Up { stage, lower, port } => {
            (4u64 << 32) | ((stage as u64) << 24) | ((lower as u64) << 8) | port as u64
        }
        LinkId::Down { stage, lower, port } => {
            (5u64 << 32) | ((stage as u64) << 24) | ((lower as u64) << 8) | port as u64
        }
    };
    LinkKey(k)
}

/// Per-link utilization sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkUtilization {
    /// The link.
    pub link: LinkId,
    /// Cycles the link spent transmitting.
    pub busy_cycles: Cycle,
}

/// The hop-level network state: one [`Resource`] per directed link, in a
/// flat table indexed by [`LinkIndexer`] — every message hop books a link,
/// so the lookup sits on the event loop's hottest path and must not hash.
#[derive(Debug)]
pub struct HopNetwork {
    cfg: SwitchConfig,
    index: LinkIndexer,
    links: Vec<Resource>,
    messages: u64,
    flits: u64,
}

impl HopNetwork {
    /// Creates an uncontended network with the given switch parameters for
    /// a BMIN of `nodes` endpoints (radix comes from `cfg`).
    pub fn new(cfg: SwitchConfig, nodes: usize) -> Self {
        let index = LinkIndexer::from_shape(nodes, cfg.radix as usize);
        HopNetwork { cfg, index, links: vec![Resource::new(); index.len()], messages: 0, flits: 0 }
    }

    /// Switch-core traversal delay in cycles.
    pub fn core_delay(&self) -> Cycle {
        self.cfg.core_cycles as Cycle
    }

    /// Cycles for one flit to cross a link.
    pub fn flit_time(&self) -> Cycle {
        self.cfg.link_cycles_per_flit as Cycle
    }

    /// Extra cycles after head arrival until the full message has arrived.
    pub fn tail_lag(&self, flits: u32) -> Cycle {
        (flits.saturating_sub(1) as Cycle) * self.flit_time()
    }

    /// Books `link` for a message of `flits` starting no earlier than
    /// `now`; returns the cycle the *head* flit arrives at the far side.
    /// The link stays busy for the full serialization time. The booked
    /// busy interval (`start..start + serialization`), the message `kind`
    /// carried and the queue wait (`start - now`) are reported through
    /// `probe`, keyed by both the packed [`LinkKey`] and the dense
    /// [`LinkIndexer`] id.
    pub fn traverse_link<P: Probe>(
        &mut self,
        link: LinkId,
        now: Cycle,
        flits: u32,
        kind: MsgType,
        probe: &mut P,
    ) -> Cycle {
        let dense = self.index.index(link);
        let duration = flits as Cycle * self.flit_time();
        let start = self.links[dense].acquire(now, duration);
        self.messages += 1;
        self.flits += flits as u64;
        probe.link_traverse(
            link_key(link),
            dense as u32,
            start,
            start + duration,
            flits,
            kind,
            start - now,
        );
        start + self.flit_time()
    }

    /// Cycle at which `link` would next be free (no booking).
    pub fn link_free_at(&self, link: LinkId) -> Cycle {
        self.links[self.index.index(link)].free_at()
    }

    /// Total messages moved (hop count).
    pub fn messages_moved(&self) -> u64 {
        self.messages
    }

    /// Total flits serialized across all links.
    pub fn flits_moved(&self) -> u64 {
        self.flits
    }

    /// Link bookings and total cycles messages waited for busy links,
    /// summed over every link (the network's backpressure counters).
    pub fn contention(&self) -> (u64, Cycle) {
        let mut acq = 0;
        let mut stall = 0;
        for r in &self.links {
            acq += r.acquisitions();
            stall += r.stall_cycles();
        }
        (acq, stall)
    }

    /// Per-link busy-cycle report for every link ever booked, sorted by
    /// busiest first.
    pub fn utilization(&self) -> Vec<LinkUtilization> {
        let mut v: Vec<_> = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, r)| r.acquisitions() > 0)
            .map(|(i, r)| LinkUtilization {
                link: self.index.link(i),
                busy_cycles: r.occupied_cycles(),
            })
            .collect();
        v.sort_unstable_by_key(|u| std::cmp::Reverse(u.busy_cycles));
        v
    }

    /// Uncontended end-to-end latency of a message over `switch_hops`
    /// switches and `switch_hops + 1` links: head pipeline time plus tail
    /// serialization. Useful as an analytic baseline in tests and reports.
    pub fn base_latency(&self, switch_hops: usize, flits: u32) -> Cycle {
        (switch_hops as Cycle + 1) * self.flit_time()
            + switch_hops as Cycle * self.core_delay()
            + self.tail_lag(flits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::config::SystemConfig;

    fn net() -> HopNetwork {
        HopNetwork::new(SystemConfig::paper_table2().switch, 16)
    }

    /// Books `link` with no observer attached.
    fn book(n: &mut HopNetwork, link: LinkId, now: Cycle, flits: u32) -> Cycle {
        n.traverse_link(link, now, flits, MsgType::ReadRequest, &mut dresar_obs::NullProbe)
    }

    #[test]
    fn uncontended_link_delivers_after_one_flit_time() {
        let mut n = net();
        let arr = book(&mut n, LinkId::ProcUp(0), 100, 5);
        assert_eq!(arr, 104, "head arrives one flit-time later");
        assert_eq!(n.link_free_at(LinkId::ProcUp(0)), 120, "busy for 5 flits x 4 cycles");
    }

    #[test]
    fn contention_queues_second_message() {
        let mut n = net();
        book(&mut n, LinkId::ProcUp(0), 0, 5);
        let arr = book(&mut n, LinkId::ProcUp(0), 0, 1);
        assert_eq!(arr, 24, "second message starts after 20 cycles of serialization");
    }

    #[test]
    fn different_links_do_not_contend() {
        let mut n = net();
        book(&mut n, LinkId::ProcUp(0), 0, 5);
        let arr = book(&mut n, LinkId::ProcUp(1), 0, 5);
        assert_eq!(arr, 4);
    }

    #[test]
    fn directions_are_separate_resources() {
        let mut n = net();
        book(&mut n, LinkId::Up { stage: 0, lower: 1, port: 2 }, 0, 5);
        let arr = book(&mut n, LinkId::Down { stage: 0, lower: 1, port: 2 }, 0, 5);
        assert_eq!(arr, 4, "backward link unaffected by forward traffic");
    }

    #[test]
    fn base_latency_matches_paper_arithmetic() {
        let n = net();
        // A 1-flit request over 2 switches: 3 links x 4 + 2 cores x 4 = 20.
        assert_eq!(n.base_latency(2, 1), 20);
        // A 5-flit reply over 2 switches adds 4 flits x 4 = 16 tail cycles.
        assert_eq!(n.base_latency(2, 5), 36);
    }

    #[test]
    fn link_key_packing_matches_obs_labels() {
        use dresar_obs::link_label;
        assert_eq!(link_label(link_key(LinkId::ProcUp(5))), "link:proc5.up");
        assert_eq!(link_label(link_key(LinkId::ProcDown(5))), "link:proc5.down");
        assert_eq!(link_label(link_key(LinkId::MemUp(2))), "link:mem2.up");
        assert_eq!(link_label(link_key(LinkId::MemDown(2))), "link:mem2.down");
        assert_eq!(
            link_label(link_key(LinkId::Up { stage: 1, lower: 2, port: 3 })),
            "link:s1.x2.p3.up"
        );
        assert_eq!(
            link_label(link_key(LinkId::Down { stage: 1, lower: 2, port: 3 })),
            "link:s1.x2.p3.down"
        );
    }

    #[test]
    fn probed_traversal_reports_class_wait_and_dense_id() {
        use dresar_obs::{link_label, AttribObserver};
        let mut n = net();
        let mut attrib = AttribObserver::new(1 << 20, 16, 4);
        // Two back-to-back bookings of the same link: the second waits for
        // the first's 20-cycle serialization.
        n.traverse_link(LinkId::ProcUp(0), 0, 5, MsgType::ReadReply, &mut attrib);
        n.traverse_link(LinkId::ProcUp(0), 0, 1, MsgType::ReadRequest, &mut attrib);
        let hm = attrib.finish();
        assert_eq!(hm.links.len(), 1);
        let l = &hm.links[0];
        assert_eq!(l.dense, 0, "ProcUp(0) is dense id 0");
        assert_eq!(link_label(l.key), "link:proc0.up");
        assert_eq!(l.load.busy_cycles, 24, "5 + 1 flits x 4 cycles");
        assert_eq!(l.load.wait_cycles, 20, "second booking queued behind the first");
        assert_eq!(l.load.class_busy[2], 20, "reply class");
        assert_eq!(l.load.class_busy[0], 4, "request class");
    }

    #[test]
    fn utilization_sorted_desc() {
        let mut n = net();
        book(&mut n, LinkId::ProcUp(0), 0, 5);
        book(&mut n, LinkId::ProcUp(1), 0, 1);
        book(&mut n, LinkId::ProcUp(0), 0, 5);
        let u = n.utilization();
        assert_eq!(u[0].link, LinkId::ProcUp(0));
        assert_eq!(u[0].busy_cycles, 40);
        assert_eq!(u[1].busy_cycles, 4);
        assert_eq!(n.messages_moved(), 3);
    }
}
