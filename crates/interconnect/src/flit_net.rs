//! A cycle-stepped network of [`crate::crossbar`] switches over the
//! [`crate::topology::Bmin`] wiring.
//!
//! This is the validation fidelity: whole messages are decomposed into
//! flits, links transmit one flit per `link_cycles_per_flit` cycles with
//! credit-based backpressure against the downstream input FIFO, and every
//! switch runs the age-based wormhole arbiter. It is used to cross-check
//! the hop-level model's latencies and by the crossbar benchmarks — the
//! full-system protocol simulators use the hop model for speed.
//!
//! Port convention per switch (radix `d`): inputs/outputs `0..d` face the
//! processors (down side), `d..2d` face the memories (up side).

use crate::crossbar::{flits_of_message, ArbiterStats, Crossbar, Exit};
use crate::link_index::LinkIndexer;
use crate::routes::{LinkId, Route};
use crate::topology::{Bmin, SwitchId};
use dresar_faults::SimError;
use dresar_types::config::SwitchConfig;
use dresar_types::{Cycle, FastMap};
use std::collections::VecDeque;

/// A completed message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Message id.
    pub msg: u64,
    /// Cycle the tail flit reached the endpoint.
    pub at: Cycle,
    /// The endpoint link it arrived on (`ProcDown` or `MemUp`).
    pub endpoint: LinkId,
}

/// Where a link feeds into.
#[derive(Debug, Clone, Copy)]
enum LinkSink {
    Switch { idx: usize, input: usize },
    Endpoint,
}

/// A physical link: flits wait until their availability time (switch core
/// delay), transmit one per `link_cycles_per_flit` cycles, and arrive at the
/// far side one flit-time after transmission starts.
#[derive(Debug, Default)]
struct LinkPipe {
    /// Flits waiting to transmit, with the cycle they become available.
    waiting: VecDeque<(Cycle, crate::crossbar::Flit)>,
    /// Flits in flight, with their arrival cycle.
    arriving: VecDeque<(Cycle, crate::crossbar::Flit)>,
    next_send: Cycle,
}

/// Per-message routing state: output port at each switch on the path, as
/// `(linear switch index, out port)` pairs in path order. Routes are at
/// most a handful of hops, so a linear scan beats any map.
#[derive(Debug)]
struct MsgRoute {
    out_ports: Vec<(u16, u8)>,
}

impl MsgRoute {
    #[inline]
    fn out_port_at(&self, switch_idx: usize) -> Option<u8> {
        self.out_ports.iter().find(|&&(s, _)| s as usize == switch_idx).map(|&(_, p)| p)
    }
}

/// The flit-level network.
#[derive(Debug)]
pub struct FlitNetwork {
    bmin: Bmin,
    cfg: SwitchConfig,
    switches: Vec<Crossbar>,
    /// Link pipes in a dense table (see [`LinkIndexer`]); `step` walks
    /// `active` — the links touched so far, in deterministic first-touch
    /// order — instead of collecting map keys every cycle.
    indexer: LinkIndexer,
    pipes: Vec<LinkPipe>,
    active: Vec<u32>,
    is_active: Vec<bool>,
    routes: FastMap<u64, MsgRoute>,
    now: Cycle,
    delivered: Vec<Delivery>,
    /// Scratch for per-switch arbitration exits, reused every cycle.
    exits_scratch: Vec<Exit>,
}

impl FlitNetwork {
    /// Builds the network.
    pub fn new(bmin: Bmin, cfg: SwitchConfig) -> Self {
        let d = bmin.radix();
        let n_ports = 2 * d;
        let switches = (0..bmin.total_switches())
            .map(|_| {
                Crossbar::new(
                    n_ports,
                    n_ports,
                    cfg.virtual_channels as usize,
                    cfg.buffer_flits as usize,
                    cfg.core_cycles,
                )
            })
            .collect();
        let indexer = LinkIndexer::new(&bmin);
        FlitNetwork {
            bmin,
            cfg,
            switches,
            indexer,
            pipes: (0..indexer.len()).map(|_| LinkPipe::default()).collect(),
            active: Vec::new(),
            is_active: vec![false; indexer.len()],
            routes: FastMap::default(),
            now: 0,
            delivered: Vec::new(),
            exits_scratch: Vec::new(),
        }
    }

    /// Dense pipe slot for `link`, recording first touches in `active` so
    /// the step loop visits exactly the links ever used.
    #[inline]
    fn pipe_mut(&mut self, link: LinkId) -> &mut LinkPipe {
        let i = self.indexer.index(link);
        if !self.is_active[i] {
            self.is_active[i] = true;
            self.active.push(i as u32);
        }
        &mut self.pipes[i]
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    fn linear(&self, sw: SwitchId) -> usize {
        sw.stage as usize * self.bmin.switches_per_stage() + sw.index as usize
    }

    /// The switch (and its input port) a link feeds.
    fn sink_of(&self, link: LinkId) -> LinkSink {
        let d = self.bmin.radix();
        match link {
            LinkId::ProcUp(p) => LinkSink::Switch {
                idx: self.linear(SwitchId { stage: 0, index: (p as usize / d) as u16 }),
                input: p as usize % d,
            },
            LinkId::MemDown(m) => {
                let top = (self.bmin.stages() - 1) as u8;
                LinkSink::Switch {
                    idx: self.linear(SwitchId { stage: top, index: (m as usize / d) as u16 }),
                    input: d + m as usize % d,
                }
            }
            LinkId::Up { stage, lower, port } => {
                // Feeds the upper switch's down-side input; the input index
                // is the upper switch's down-port toward `lower`, which is
                // the last digit of the lower switch's p-part.
                let k = stage as usize;
                let p_part = lower as usize / d.pow(k as u32);
                let m_part = lower as usize % d.pow(k as u32);
                let upper_index = (p_part / d) * d.pow(k as u32 + 1) + (m_part * d + port as usize);
                LinkSink::Switch {
                    idx: self.linear(SwitchId { stage: stage + 1, index: upper_index as u16 }),
                    input: p_part % d,
                }
            }
            LinkId::Down { stage, lower, port } => LinkSink::Switch {
                idx: self.linear(SwitchId { stage, index: lower }),
                input: self.bmin.radix() + port as usize,
            },
            LinkId::ProcDown(_) | LinkId::MemUp(_) => LinkSink::Endpoint,
        }
    }

    /// Output port on `sw` that drives `link`, or `None` for injection
    /// links (which have no switch driver — a route asking for one is
    /// malformed and rejected by [`FlitNetwork::inject`]).
    fn out_port_for(&self, sw: SwitchId, link: LinkId) -> Option<u8> {
        let d = self.bmin.radix();
        match link {
            LinkId::MemUp(m) => Some((d + m as usize % d) as u8),
            LinkId::ProcDown(p) => Some((p as usize % d) as u8),
            LinkId::Up { port, .. } => {
                debug_assert!(self.sink_is_above(sw, link));
                Some((d + port as usize) as u8)
            }
            LinkId::Down { lower, .. } => {
                // Driven by the upper switch's down output toward `lower`:
                // port = last digit of the lower switch's p-part.
                let k = (sw.stage - 1) as usize;
                let p_part = lower as usize / d.pow(k as u32);
                Some((p_part % d) as u8)
            }
            LinkId::ProcUp(_) | LinkId::MemDown(_) => None,
        }
    }

    fn sink_is_above(&self, sw: SwitchId, link: LinkId) -> bool {
        matches!(link, LinkId::Up { stage, .. } if stage == sw.stage)
    }

    /// Injects a message: `flits` flits following `route`, entering the
    /// network on `route.link(0)` (which must be an injection link).
    ///
    /// A route whose interior asks a switch to drive an injection link is
    /// rejected without mutating the network.
    pub fn inject(&mut self, msg: u64, route: &Route, flits: u32) -> Result<(), SimError> {
        let mut out_ports = Vec::with_capacity(route.switch_hops());
        for i in 0..route.switch_hops() {
            let sw = route.switch(i);
            let next_link = route.link(i + 1);
            let port = self.out_port_for(sw, next_link).ok_or_else(|| SimError::Network {
                context: "inject",
                detail: format!(
                    "route for message {msg} asks switch {sw:?} to drive injection link {next_link:?}"
                ),
            })?;
            out_ports.push((self.linear(sw) as u16, port));
        }
        let mroute = MsgRoute { out_ports };

        // First out-port: at the first switch (or directly the endpoint for
        // degenerate single-link routes — only possible for switch-origin
        // routes, which we inject at their first link too).
        let first_port = (route.switch_hops() > 0)
            .then(|| route.switch(0))
            .and_then(|sw| mroute.out_port_at(self.linear(sw)))
            .unwrap_or(0);
        self.routes.insert(msg, mroute);
        let now = self.now;
        let pipe = self.pipe_mut(route.link(0));
        for f in flits_of_message(msg, flits, now, first_port) {
            pipe.waiting.push_back((now, f));
        }
        Ok(())
    }

    /// Advances one cycle; returns deliveries completed this cycle.
    pub fn step(&mut self) -> Vec<Delivery> {
        let now = self.now;
        let lcpf = self.cfg.link_cycles_per_flit as Cycle;

        // 1a. Deliver flits whose transmission completed this cycle. The
        //     `active` list is the set of links ever touched, in first-
        //     touch order — no per-cycle key collection, no map iteration.
        let mut done = Vec::new();
        for a in 0..self.active.len() {
            let li = self.active[a] as usize;
            let link = self.indexer.link(li);
            let sink = self.sink_of(link);
            loop {
                let front = self.pipes[li].arriving.front().copied();
                let Some((at, f)) = front else { break };
                if at > now {
                    break;
                }
                match sink {
                    LinkSink::Endpoint => {
                        self.pipes[li].arriving.pop_front();
                        if f.tail {
                            done.push(Delivery { msg: f.msg, at, endpoint: link });
                        }
                    }
                    LinkSink::Switch { idx, input } => {
                        let vc = (f.msg % self.cfg.virtual_channels as u64) as usize;
                        // Retarget the flit's out-port for the switch it
                        // enters.
                        let mut f2 = f;
                        if let Some(r) = self.routes.get(&f.msg) {
                            if let Some(p) = r.out_port_at(idx) {
                                f2.out_port = p;
                            }
                        }
                        if self.switches[idx].offer(input, vc, f2) {
                            self.pipes[li].arriving.pop_front();
                        } else {
                            break; // FIFO full: back-pressure, retry next cycle.
                        }
                    }
                }
            }
        }

        // 1b. Start new transmissions: one flit per `lcpf` cycles, subject
        //     to downstream FIFO credit.
        for a in 0..self.active.len() {
            let li = self.active[a] as usize;
            let link = self.indexer.link(li);
            let sink = self.sink_of(link);
            let credit = match sink {
                LinkSink::Endpoint => true,
                LinkSink::Switch { idx, input } => {
                    // Conservative credit: require space for every VC this
                    // flit might enter (per-message VC is known below, but a
                    // cheap any-space check keeps the hot loop simple and the
                    // arrival path retries on the rare overfill).
                    (0..self.cfg.virtual_channels as usize)
                        .any(|v| self.switches[idx].free_space(input, v) > 0)
                }
            };
            let pipe = &mut self.pipes[li];
            if now < pipe.next_send || !credit {
                continue;
            }
            match pipe.waiting.front() {
                Some(&(avail, _)) if avail <= now => {}
                _ => continue,
            }
            let Some((_, f)) = pipe.waiting.pop_front() else { continue };
            pipe.next_send = now + lcpf;
            pipe.arriving.push_back((now + lcpf, f));
        }

        // 2. Switches arbitrate; exits enter their outgoing link pipes.
        //    The exits buffer is reused across switches and cycles.
        let mut exits = std::mem::take(&mut self.exits_scratch);
        for idx in 0..self.switches.len() {
            exits.clear();
            self.switches[idx].step_into(now, &mut exits);
            if exits.is_empty() {
                continue;
            }
            let sw = SwitchId {
                stage: (idx / self.bmin.switches_per_stage()) as u8,
                index: (idx % self.bmin.switches_per_stage()) as u16,
            };
            for &Exit { out_port, at, flit } in &exits {
                let link = self.link_of_output(sw, out_port);
                self.pipe_mut(link).waiting.push_back((at, flit));
            }
        }
        self.exits_scratch = exits;

        self.now += 1;
        self.delivered.extend(done.iter().copied());
        done
    }

    /// The link driven by `sw`'s output `port`, reconstructed from the
    /// wiring. Down-side outputs (`port < d`) drive `Down` or `ProcDown`
    /// links; up-side outputs drive `Up` or `MemUp`.
    fn link_of_output(&self, sw: SwitchId, port: u8) -> LinkId {
        let d = self.bmin.radix();
        let k = sw.stage as usize;
        let p_part = sw.index as usize / d.pow(k as u32);
        let m_part = sw.index as usize % d.pow(k as u32);
        if (port as usize) < d {
            // Down side.
            if k == 0 {
                LinkId::ProcDown((p_part * d + port as usize) as u8)
            } else {
                // Lower switch: p-part gains digit `port`, m-part drops its
                // last digit; the pair's canonical port is m_part's last
                // digit.
                let lower_p = p_part * d + port as usize;
                let lower_m = m_part / d;
                let lower = lower_p * d.pow(k as u32 - 1) + lower_m;
                LinkId::Down { stage: (k - 1) as u8, lower: lower as u16, port: (m_part % d) as u8 }
            }
        } else {
            let j = port as usize - d;
            if k == self.bmin.stages() - 1 {
                LinkId::MemUp((sw.index as usize * d + j) as u8)
            } else {
                LinkId::Up { stage: sw.stage, lower: sw.index, port: j as u8 }
            }
        }
    }

    /// Runs until every message has delivered or `max_cycles` elapse.
    /// Returns all deliveries so far.
    pub fn run_until_drained(&mut self, max_cycles: Cycle) -> Vec<Delivery> {
        let target = self.routes.len();
        while self.delivered.len() < target && self.now < max_cycles {
            self.step();
        }
        self.delivered.clone()
    }

    /// All deliveries so far.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.delivered
    }

    /// Arbitration counters summed over every switch in the network.
    pub fn arbiter_stats(&self) -> ArbiterStats {
        let mut total = ArbiterStats::default();
        for sw in &self.switches {
            total.merge(sw.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes;
    use dresar_types::config::SystemConfig;

    fn net() -> FlitNetwork {
        FlitNetwork::new(Bmin::new(16, 4), SystemConfig::paper_table2().switch)
    }

    #[test]
    fn single_request_crosses_network() {
        let mut n = net();
        let bmin = Bmin::new(16, 4);
        let r = routes::forward(&bmin, 3, 12);
        n.inject(1, &r, 1).unwrap();
        let d = n.run_until_drained(10_000);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].msg, 1);
        assert_eq!(d[0].endpoint, LinkId::MemUp(12));
        // Uncontended: 3 links x 4 + 2 cores x 4 = 20 cycles, +-1 stepping.
        assert!(d[0].at >= 20 && d[0].at <= 24, "latency {} out of range", d[0].at);
    }

    #[test]
    fn reply_crosses_backward() {
        let mut n = net();
        let bmin = Bmin::new(16, 4);
        let r = routes::backward(&bmin, 12, 3);
        n.inject(2, &r, 5).unwrap();
        let d = n.run_until_drained(10_000);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].endpoint, LinkId::ProcDown(3));
        // 5 flits: tail lag adds 4 x 4 = 16 over the 20-cycle head path.
        assert!(d[0].at >= 36 && d[0].at <= 44, "latency {} out of range", d[0].at);
    }

    #[test]
    fn proc_to_proc_turnaround_delivers() {
        let mut n = net();
        let bmin = Bmin::new(16, 4);
        let r = routes::proc_to_proc(&bmin, 1, 9, 0).unwrap();
        n.inject(3, &r, 5).unwrap();
        let d = n.run_until_drained(10_000);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].endpoint, LinkId::ProcDown(9));
    }

    #[test]
    fn many_messages_all_deliver() {
        let mut n = net();
        let bmin = Bmin::new(16, 4);
        let mut id = 0u64;
        for p in 0..16u8 {
            for m in 0..16u8 {
                n.inject(id, &routes::forward(&bmin, p, m), 1).unwrap();
                id += 1;
            }
        }
        let d = n.run_until_drained(100_000);
        assert_eq!(d.len(), 256, "every message must deliver (no deadlock)");
    }

    #[test]
    fn contention_slows_shared_destination() {
        let bmin = Bmin::new(16, 4);
        // 4 processors of one quad all target memory 12: they share the
        // ejection link.
        let mut n = net();
        for p in 0..4u8 {
            n.inject(p as u64, &routes::forward(&bmin, p, 12), 5).unwrap();
        }
        let d = n.run_until_drained(100_000);
        assert_eq!(d.len(), 4);
        let mut times: Vec<_> = d.iter().map(|x| x.at).collect();
        times.sort_unstable();
        // Tails must be separated by at least the 20-cycle serialization of
        // a 5-flit message on the shared final link.
        for w in times.windows(2) {
            assert!(
                w[1] >= w[0] + 20,
                "deliveries {} and {} overlap on the shared link",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn radix2_network_works_too() {
        let bmin = Bmin::new(16, 2);
        let mut n = FlitNetwork::new(bmin, SystemConfig::paper_table2().switch);
        for p in 0..16u8 {
            n.inject(p as u64, &routes::forward(&bmin, p, 15 - p), 1).unwrap();
        }
        let d = n.run_until_drained(100_000);
        assert_eq!(d.len(), 16);
    }
}
