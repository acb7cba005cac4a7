//! Host-time attribution for the traced repeat.
//!
//! [`LayerProbe`] wraps the observers an untraced run would attach and
//! reads the clock once at every hook. The time since the previous hook is
//! charged to the layer that owns the hook ending the interval. Work that
//! emits no hook of its own (an L1 hit, the wrapped observers, the clock
//! read itself) is therefore charged to whichever hook fires next.

use dresar_obs::{HomeTransition, LinkKey, Probe, SdProbeEvent, ServicePoint, SwitchLoc};
use dresar_stats::ReadClass;
use dresar_types::msg::{Message, MsgType};
use dresar_types::{BlockAddr, Cycle, NodeId};
use std::time::{Duration, Instant};

/// Layers host time is split across, named after the crates that own the
/// hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Engine,
    Core,
    Switchdir,
    Interconnect,
    Directory,
    Cache,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Engine,
        Layer::Core,
        Layer::Switchdir,
        Layer::Interconnect,
        Layer::Directory,
        Layer::Cache,
    ];

    /// Metric-name prefix of the layer's `*.host_share`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::Core => "core",
            Layer::Switchdir => "switchdir",
            Layer::Interconnect => "interconnect",
            Layer::Directory => "directory",
            Layer::Cache => "cache",
        }
    }
}

/// A [`Probe`] that charges host time to layers and forwards every hook to
/// `inner`.
pub struct LayerProbe<P> {
    pub inner: P,
    last: Instant,
    time: [Duration; 6],
    hooks: [u64; 6],
}

impl<P: Probe> LayerProbe<P> {
    /// Starts the clock; build it immediately before the run it measures.
    pub fn new(inner: P) -> Self {
        LayerProbe { inner, last: Instant::now(), time: [Duration::ZERO; 6], hooks: [0; 6] }
    }

    fn charge(&mut self, layer: Layer) {
        let now = Instant::now();
        self.time[layer as usize] += now - self.last;
        self.hooks[layer as usize] += 1;
        self.last = now;
    }

    /// Seconds charged per layer, in [`Layer::ALL`] order. The stretch
    /// from the last hook to `run_end` (report assembly and the coherence
    /// audit) is charged to `core`.
    pub fn finish(mut self, run_end: Instant) -> ([f64; 6], P) {
        self.time[Layer::Core as usize] += run_end.saturating_duration_since(self.last);
        (self.time.map(|d| d.as_secs_f64()), self.inner)
    }
}

/// Charges `layer`, then forwards the hook to the wrapped observers.
macro_rules! hook {
    ($self:ident, $layer:expr, $m:ident ( $($a:expr),* )) => {{
        $self.charge($layer);
        $self.inner.$m($($a),*);
    }};
}

/// One arm per `Probe` method: this impl is the hook-to-layer table.
impl<P: Probe> Probe for LayerProbe<P> {
    fn tick(&mut self, t: Cycle, queue_depth: usize) {
        hook!(self, Layer::Engine, tick(t, queue_depth))
    }
    fn msg_send(&mut self, t: Cycle, msg: &Message) {
        hook!(self, Layer::Core, msg_send(t, msg))
    }
    fn msg_hop(&mut self, t: Cycle, msg: &Message, sw: SwitchLoc) {
        hook!(self, Layer::Core, msg_hop(t, msg, sw))
    }
    fn msg_sink(&mut self, t: Cycle, msg: &Message, sw: SwitchLoc) {
        hook!(self, Layer::Core, msg_sink(t, msg, sw))
    }
    fn msg_deliver(&mut self, t: Cycle, msg: &Message) {
        hook!(self, Layer::Core, msg_deliver(t, msg))
    }
    fn sd_event(&mut self, t: Cycle, sw: SwitchLoc, block: BlockAddr, ev: SdProbeEvent) {
        hook!(self, Layer::Switchdir, sd_event(t, sw, block, ev))
    }
    fn sd_occupancy(&mut self, t: Cycle, sw: SwitchLoc, valid: usize, transient: usize) {
        hook!(self, Layer::Switchdir, sd_occupancy(t, sw, valid, transient))
    }
    fn home_fsm(&mut self, t: Cycle, home: NodeId, block: BlockAddr, tr: HomeTransition) {
        hook!(self, Layer::Directory, home_fsm(t, home, block, tr))
    }
    fn home_service(
        &mut self,
        home: NodeId,
        block: BlockAddr,
        kind: MsgType,
        arrive: Cycle,
        start: Cycle,
        done: Cycle,
    ) {
        hook!(self, Layer::Directory, home_service(home, block, kind, arrive, start, done))
    }
    fn nak_received(&mut self, t: Cycle, node: NodeId, block: BlockAddr) {
        hook!(self, Layer::Core, nak_received(t, node, block))
    }
    fn link_traverse(
        &mut self,
        link: LinkKey,
        dense: u32,
        start: Cycle,
        end: Cycle,
        flits: u32,
        kind: MsgType,
        wait: Cycle,
    ) {
        hook!(self, Layer::Interconnect, link_traverse(link, dense, start, end, flits, kind, wait))
    }
    fn read_issue(&mut self, node: NodeId, block: BlockAddr, t0: Cycle, inject: Cycle, txn: u64) {
        hook!(self, Layer::Cache, read_issue(node, block, t0, inject, txn))
    }
    fn read_retry(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {
        hook!(self, Layer::Cache, read_retry(node, block, t, txn))
    }
    fn read_service_arrive(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        at: ServicePoint,
        t: Cycle,
        txn: u64,
    ) {
        hook!(self, Layer::Core, read_service_arrive(node, block, at, t, txn))
    }
    fn read_service_done(&mut self, node: NodeId, block: BlockAddr, t: Cycle, txn: u64) {
        hook!(self, Layer::Core, read_service_done(node, block, t, txn))
    }
    fn read_complete(
        &mut self,
        node: NodeId,
        block: BlockAddr,
        class: ReadClass,
        latency: Cycle,
        t: Cycle,
        txn: u64,
    ) {
        hook!(self, Layer::Cache, read_complete(node, block, class, latency, t, txn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_obs::{DirStateKind, HomeReq, NullProbe};
    use dresar_types::msg::Endpoint;

    /// Calls every hook once and checks which layer each one charged.
    #[test]
    fn every_hook_charges_its_layer() {
        let msg = Message::new(
            1,
            MsgType::ReadRequest,
            BlockAddr(0),
            Endpoint::Proc(0),
            Endpoint::Mem(1),
            0,
            0,
        );
        let sw = SwitchLoc::default();
        let tr = HomeTransition {
            req: HomeReq::Read,
            from: DirStateKind::Uncached,
            from_busy: false,
            to: DirStateKind::Shared,
            to_busy: false,
            nak: false,
            queued: false,
        };
        type Call = fn(&mut LayerProbe<NullProbe>, &Message, SwitchLoc, HomeTransition);
        let table: [(&str, Call, Layer); 16] = [
            ("tick", |p, _, _, _| p.tick(0, 0), Layer::Engine),
            ("msg_send", |p, m, _, _| p.msg_send(0, m), Layer::Core),
            ("msg_hop", |p, m, s, _| p.msg_hop(0, m, s), Layer::Core),
            ("msg_sink", |p, m, s, _| p.msg_sink(0, m, s), Layer::Core),
            ("msg_deliver", |p, m, _, _| p.msg_deliver(0, m), Layer::Core),
            (
                "sd_event",
                |p, _, s, _| p.sd_event(0, s, BlockAddr(0), SdProbeEvent::Insert),
                Layer::Switchdir,
            ),
            ("sd_occupancy", |p, _, s, _| p.sd_occupancy(0, s, 1, 0), Layer::Switchdir),
            ("home_fsm", |p, _, _, t| p.home_fsm(0, 0, BlockAddr(0), t), Layer::Directory),
            (
                "home_service",
                |p, _, _, _| p.home_service(0, BlockAddr(0), MsgType::ReadRequest, 0, 1, 2),
                Layer::Directory,
            ),
            ("nak_received", |p, _, _, _| p.nak_received(0, 0, BlockAddr(0)), Layer::Core),
            (
                "link_traverse",
                |p, _, _, _| p.link_traverse(LinkKey(0), 0, 0, 1, 1, MsgType::ReadRequest, 0),
                Layer::Interconnect,
            ),
            ("read_issue", |p, _, _, _| p.read_issue(0, BlockAddr(0), 0, 1, 1), Layer::Cache),
            ("read_retry", |p, _, _, _| p.read_retry(0, BlockAddr(0), 0, 1), Layer::Cache),
            (
                "read_service_arrive",
                |p, _, _, _| p.read_service_arrive(0, BlockAddr(0), ServicePoint::Home(0), 0, 1),
                Layer::Core,
            ),
            (
                "read_service_done",
                |p, _, _, _| p.read_service_done(0, BlockAddr(0), 0, 1),
                Layer::Core,
            ),
            (
                "read_complete",
                |p, _, _, _| p.read_complete(0, BlockAddr(0), ReadClass::CleanMemory, 5, 5, 1),
                Layer::Cache,
            ),
        ];
        for (name, call, layer) in table {
            let mut p = LayerProbe::new(NullProbe);
            call(&mut p, &msg, sw, tr);
            let mut want = [0u64; 6];
            want[layer as usize] = 1;
            assert_eq!(p.hooks, want, "hook {name} must charge {}", layer.name());
        }
    }

    #[test]
    fn finish_charges_the_tail_to_core_and_keeps_every_interval() {
        let mut p = LayerProbe::new(NullProbe);
        let start = p.last;
        p.tick(0, 0);
        p.read_issue(0, BlockAddr(0), 0, 1, 1);
        let end = Instant::now();
        let (secs, _) = p.finish(end);
        let total: f64 = secs.iter().sum();
        let wall = (end - start).as_secs_f64();
        assert!((total - wall).abs() < 1e-9, "shares must cover the whole run: {total} vs {wall}");
    }
}
