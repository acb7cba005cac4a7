//! Routes: the ordered switches and directed links a message traverses.
//!
//! Every path in the butterfly ascends from its source to one turnaround
//! switch (the highest switch it crosses) and, unless it ends at a memory,
//! descends from there to its destination processor. A switch at stage `j`
//! on either leg is labelled by the high `s-1-j` digits of a processor
//! below that leg and the high `j` digits of the turnaround switch's
//! memory-side part (see [`crate::topology`]). The constructors pick the
//! turnaround switch and derive the labels once, when the route is built,
//! so a [`Route`] is a small `Copy` value: its two endpoints and the index
//! of each switch it crosses. Stages and links follow from those.
//!
//! `link(0)` carries the message into `switch(0)`, `link(i)` connects
//! `switch(i-1)` to `switch(i)`, and `link(switch_hops())` delivers to the
//! endpoint. Messages *originated by a switch directory* start at their
//! first switch after the originating one (the originating switch is
//! excluded so the hop executor never re-snoops the entry that generated
//! the message).
//!
//! Forward and backward directions use disjoint link identities: the BMIN
//! provides separate physical resources per direction (paper §3.1,
//! "Separating the paths enables separate resources and reduces the
//! possibility of deadlocks").

use crate::topology::{high, low, pow, Bmin, SwitchId};
use dresar_faults::SimError;
use dresar_types::msg::Endpoint;
use dresar_types::NodeId;

/// A directed physical link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// Processor injection link (forward, proc -> stage 0).
    ProcUp(NodeId),
    /// Processor ejection link (backward, stage 0 -> proc).
    ProcDown(NodeId),
    /// Memory ejection link (forward, top stage -> memory).
    MemUp(NodeId),
    /// Memory injection link (backward, memory -> top stage).
    MemDown(NodeId),
    /// Inter-stage link, forward (up) direction. Identified by the lower
    /// switch and its up-port.
    Up {
        /// Stage of the lower switch.
        stage: u8,
        /// Index of the lower switch.
        lower: u16,
        /// Up-port on the lower switch.
        port: u8,
    },
    /// Inter-stage link, backward (down) direction; mirrors [`LinkId::Up`].
    Down {
        /// Stage of the lower switch.
        stage: u8,
        /// Index of the lower switch.
        lower: u16,
        /// Up-port on the lower switch (canonical pair identity).
        port: u8,
    },
}

/// Most switches a route crosses: up seven stages, across the eighth and
/// down again on the deepest machine (256 nodes of radix 2).
const MAX_SWITCHES: usize = 15;

/// A hop-by-hop route through the BMIN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// A processor, a memory, or the switch that originated the message.
    src: Endpoint,
    /// A processor, or a memory (only for forward routes).
    dst: Endpoint,
    /// Switch radix `d` of the network.
    radix: u16,
    /// Stage of the first switch of the ascending leg.
    first: u8,
    /// Switches on the ascending leg, the turnaround switch included.
    ascent: u8,
    /// Switches crossed.
    hops: u8,
    /// Index within its stage of each switch crossed, in order. Every
    /// index is below `n/d <= 128`.
    index: [u8; MAX_SWITCHES],
}

/// A single hop: the link taken to arrive somewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Link traversed.
    pub link: LinkId,
    /// Switch reached, or `None` for the final (endpoint) hop.
    pub switch: Option<SwitchId>,
}

impl Route {
    /// The route from `src` up to `turn` and, if `dst` is a processor,
    /// down from it to `dst`. The ascending leg starts at stage `first`
    /// above processor `below` (the turnaround switch alone when `first`
    /// is its stage, and empty when `first` is above it).
    fn new(
        bmin: &Bmin,
        src: Endpoint,
        first: usize,
        below: usize,
        turn: SwitchId,
        dst: Endpoint,
    ) -> Route {
        let d = bmin.radix();
        let top = turn.stage as usize;
        let m_part = low(d, turn.index as usize, top);
        let label = |j: usize, x: usize| high(d, x, j + 1) * pow(d, j) + high(d, m_part, top - j);
        let mut index = [0; MAX_SWITCHES];
        let ascent = top + 1 - first;
        for (i, j) in (first..top + 1).enumerate() {
            index[i] = label(j, below) as u8;
        }
        let mut hops = ascent;
        if let Endpoint::Proc(b) = dst {
            for j in (0..top).rev() {
                index[hops] = label(j, b as usize) as u8;
                hops += 1;
            }
        }
        Route {
            src,
            dst,
            radix: d as u16,
            first: first as u8,
            ascent: ascent as u8,
            hops: hops as u8,
            index,
        }
    }

    /// Number of switch traversals.
    #[inline]
    pub fn switch_hops(&self) -> usize {
        self.hops as usize
    }

    /// The `i`-th switch crossed, `i < switch_hops()`.
    #[inline]
    pub fn switch(&self, i: usize) -> SwitchId {
        debug_assert!(i < self.switch_hops());
        let (first, up) = (self.first as usize, self.ascent as usize);
        let top = first + up - 1; // the turnaround switch's stage
        let stage = if i < up { first + i } else { top - 1 - (i - up) };
        SwitchId { stage: stage as u8, index: self.index[i] as u16 }
    }

    /// The `i`-th link traversed, `i <= switch_hops()`: the link into
    /// `switch(i)`, or the endpoint link for the last.
    #[inline]
    pub fn link(&self, i: usize) -> LinkId {
        debug_assert!(i <= self.switch_hops());
        if i == self.switch_hops() {
            return match self.dst {
                Endpoint::Mem(m) => LinkId::MemUp(m),
                Endpoint::Proc(b) => LinkId::ProcDown(b),
                Endpoint::Switch { .. } => unreachable!("routes never end at a switch"),
            };
        }
        let next = self.switch(i);
        let prev = match self.src {
            _ if i > 0 => self.switch(i - 1),
            Endpoint::Proc(a) => return LinkId::ProcUp(a),
            Endpoint::Mem(m) => return LinkId::MemDown(m),
            Endpoint::Switch { stage, index } => SwitchId { stage, index },
        };
        // A link is named by its lower switch and the upper switch's last
        // memory-side digit, which is its index's last digit.
        let port = |upper: SwitchId| low(self.radix as usize, upper.index as usize, 1) as u8;
        if next.stage > prev.stage {
            LinkId::Up { stage: prev.stage, lower: prev.index, port: port(next) }
        } else {
            LinkId::Down { stage: next.stage, lower: next.index, port: port(prev) }
        }
    }

    /// Iterates hops: each link paired with the switch it leads to (`None`
    /// for the endpoint-delivering last link).
    pub fn hops(&self) -> impl Iterator<Item = Hop> + '_ {
        let hops = self.switch_hops();
        (0..=hops)
            .map(move |i| Hop { link: self.link(i), switch: (i < hops).then(|| self.switch(i)) })
    }
}

/// Every static route of one direction (forward proc->mem or backward
/// mem->proc), indexed by endpoint pair. The simulator derives routes
/// from their endpoints; this table remains because the repo benchmark
/// times building it.
#[derive(Debug, Clone)]
pub struct RouteTable {
    nodes: usize,
    routes: Vec<Route>,
}

impl RouteTable {
    fn build(bmin: &Bmin, make: impl Fn(&Bmin, NodeId, NodeId) -> Route) -> Self {
        let n = bmin.nodes();
        let routes = (0..n * n).map(|i| make(bmin, (i / n) as NodeId, (i % n) as NodeId)).collect();
        RouteTable { nodes: n, routes }
    }

    /// Table of every forward route proc `a` -> mem `b`.
    pub fn forward(bmin: &Bmin) -> Self {
        Self::build(bmin, forward)
    }

    /// Table of every backward route mem `a` -> proc `b`.
    pub fn backward(bmin: &Bmin) -> Self {
        Self::build(bmin, backward)
    }

    /// Route `a -> b`.
    pub fn route(&self, a: NodeId, b: NodeId) -> Route {
        self.routes[a as usize * self.nodes + b as usize]
    }
}

/// Typed error for an endpoint outside `bmin`.
fn outside(context: &'static str, bmin: &Bmin, what: String) -> SimError {
    SimError::Route { context, detail: format!("{what} is outside the {}-node BMIN", bmin.nodes()) }
}

/// Builds the forward route processor `p` -> memory `m`.
pub fn forward(bmin: &Bmin, p: NodeId, m: NodeId) -> Route {
    let top = bmin.switch_on_path(p, m, bmin.stages() - 1);
    Route::new(bmin, Endpoint::Proc(p), 0, p as usize, top, Endpoint::Mem(m))
}

/// Builds the backward route memory `m` -> processor `p`.
pub fn backward(bmin: &Bmin, m: NodeId, p: NodeId) -> Route {
    // A memory injects at the top stage, whose labels carry no
    // processor-side digits: the ascent is the top switch alone.
    let top = bmin.switch_on_path(p, m, bmin.stages() - 1);
    Route::new(bmin, Endpoint::Mem(m), top.stage as usize, 0, top, Endpoint::Proc(p))
}

/// Builds a processor-to-processor route `a` -> `b` (cache-to-cache data,
/// owner NAKs): up the forward links to the lowest common turnaround
/// switch, then down the backward links. `tiebreak` (typically a block
/// hash) picks among the equivalent turnaround switches.
///
/// Every pair of processors of the machine has a route; an id outside it
/// is a typed [`SimError`] (rather than a panic) so the system simulator
/// can surface it through `ExecutionReport::sim_errors` and keep running.
pub fn proc_to_proc(bmin: &Bmin, a: NodeId, b: NodeId, tiebreak: u64) -> Result<Route, SimError> {
    if let Some(x) = [a, b].into_iter().find(|&x| x as usize >= bmin.nodes()) {
        return Err(outside("proc_to_proc", bmin, format!("proc {x}")));
    }
    let turn = bmin.turnaround_switch(a, b, tiebreak);
    Ok(Route::new(bmin, Endpoint::Proc(a), 0, a as usize, turn, Endpoint::Proc(b)))
}

/// Builds the route for a message *originated by* switch `sw` (a CtoC
/// request, retry or writeback-data reply from the switch directory's
/// "CtoC & Reply unit", or a NAK) heading to processor `p`.
///
/// A target below `sw` is reached by descending; the placement invariant
/// guarantees that for every CtoC request and data reply a correct switch
/// directory generates. Any other target (a switch-generated NAK to a
/// *foreign* CtoC requester: a CtoC request sunk on a TRANSIENT entry
/// names a requester that may live under a different subtree than the
/// message's down-path) is reached by ascending over forward links to the
/// lowest stage that covers it and turning around; each up-hop appends a
/// free memory-side digit drawn from `tiebreak`.
///
/// Like [`proc_to_proc`], a switch or processor outside the machine is a
/// typed [`SimError`] (instead of a panic), so fault-injected runs record
/// the anomaly and continue.
pub fn from_switch_to_proc_via(
    bmin: &Bmin,
    sw: SwitchId,
    p: NodeId,
    tiebreak: u64,
) -> Result<Route, SimError> {
    const CONTEXT: &str = "from_switch_to_proc_via";
    if !bmin.contains(sw) {
        return Err(outside(CONTEXT, bmin, format!("switch {sw:?}")));
    }
    if p as usize >= bmin.nodes() {
        return Err(outside(CONTEXT, bmin, format!("proc {p}")));
    }
    let d = bmin.radix();
    let k = sw.stage as usize;
    // The lowest-numbered processor under `sw` addresses the ascent, and
    // determines the lowest stage whose subtree also covers `p`.
    let below = high(d, sw.index as usize, k) * pow(d, k + 1);
    let turn = if bmin.reaches_down(sw, p) {
        sw
    } else {
        let t = bmin.turnaround_stage(below as NodeId, p);
        let mut m_part = low(d, sw.index as usize, k);
        let mut tb = tiebreak as usize;
        for _ in k..t {
            m_part = m_part * d + tb % d;
            tb /= d;
        }
        let index = high(d, p as usize, t + 1) * pow(d, t) + m_part;
        SwitchId { stage: t as u8, index: index as u16 }
    };
    let src = Endpoint::Switch { stage: sw.stage, index: sw.index };
    Ok(Route::new(bmin, src, k + 1, below, turn, Endpoint::Proc(p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b16() -> Bmin {
        Bmin::new(16, 4)
    }

    fn switches(r: &Route) -> Vec<SwitchId> {
        (0..r.switch_hops()).map(|i| r.switch(i)).collect()
    }

    fn links(r: &Route) -> Vec<LinkId> {
        (0..=r.switch_hops()).map(|i| r.link(i)).collect()
    }

    #[test]
    fn route_is_a_small_value() {
        assert!(std::mem::size_of::<Route>() <= 32);
    }

    #[test]
    fn forward_route_shape() {
        let r = forward(&b16(), 5, 9);
        assert_eq!(r.switch_hops(), 2);
        assert_eq!(r.link(0), LinkId::ProcUp(5));
        assert_eq!(r.link(r.switch_hops()), LinkId::MemUp(9));
        assert!(matches!(r.link(1), LinkId::Up { .. }));
    }

    #[test]
    fn backward_route_mirrors_forward() {
        let b = b16();
        let f = forward(&b, 5, 9);
        let r = backward(&b, 9, 5);
        let mut f_switches = switches(&f);
        f_switches.reverse();
        assert_eq!(switches(&r), f_switches);
        // Same physical link pair, opposite direction.
        if let (
            LinkId::Up { stage, lower, port },
            LinkId::Down { stage: s2, lower: l2, port: p2 },
        ) = (f.link(1), r.link(1))
        {
            assert_eq!((stage, lower, port), (s2, l2, p2));
        } else {
            panic!("expected inter-stage links");
        }
    }

    #[test]
    fn proc_to_proc_same_quad_turns_at_stage0() {
        let r = proc_to_proc(&b16(), 1, 2, 0).unwrap();
        assert_eq!(r.switch_hops(), 1);
        assert_eq!(r.switch(0).stage, 0);
        assert_eq!(links(&r), vec![LinkId::ProcUp(1), LinkId::ProcDown(2)]);
    }

    #[test]
    fn proc_to_proc_cross_quad_turns_at_top() {
        let r = proc_to_proc(&b16(), 1, 9, 7).unwrap();
        assert_eq!(r.switch_hops(), 3); // up stage0, turn stage1, down stage0
        assert_eq!(r.switch(1).stage, 1);
    }

    /// Ids outside the machine are typed errors, not panics.
    #[test]
    fn ids_outside_the_machine_are_errors() {
        let b = b16();
        for (a, c) in [(3, 200), (200, 3), (16, 0)] {
            let e = proc_to_proc(&b, a, c, 0).unwrap_err();
            assert!(matches!(e, SimError::Route { context: "proc_to_proc", .. }), "{e}");
        }
        let sw = b.switch_on_path(6, 9, 1);
        for p in [16, 200] {
            let e = from_switch_to_proc_via(&b, sw, p, 0).unwrap_err();
            assert!(matches!(e, SimError::Route { context: "from_switch_to_proc_via", .. }));
        }
        for bad in [SwitchId { stage: 2, index: 0 }, SwitchId { stage: 0, index: 4 }] {
            assert!(from_switch_to_proc_via(&b, bad, 3, 0).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn switch_originated_route_descends_only() {
        let b = b16();
        // Top-stage switch on the path of owner 6 to home 9.
        let sw = b.switch_on_path(6, 9, 1);
        let r = from_switch_to_proc_via(&b, sw, 6, 0).expect("owner reachable");
        assert_eq!(r.switch_hops(), 1);
        assert_eq!(r.switch(0).stage, 0);
        assert!(matches!(r.link(0), LinkId::Down { .. }));
        assert_eq!(r.link(r.switch_hops()), LinkId::ProcDown(6));
    }

    #[test]
    fn switch_originated_route_from_stage0_is_single_link() {
        let b = b16();
        let sw = b.switch_on_path(6, 9, 0);
        let r = from_switch_to_proc_via(&b, sw, 6, 0).unwrap();
        assert_eq!(r.switch_hops(), 0);
        assert_eq!(links(&r), vec![LinkId::ProcDown(6)]);
    }

    #[test]
    fn unreachable_switch_origin_ascends() {
        let b = b16();
        let sw = b.switch_on_path(0, 9, 0); // serves quad 0..4
        assert!(!b.reaches_down(sw, 12));
        let r = from_switch_to_proc_via(&b, sw, 12, 0).unwrap();
        assert!(matches!(r.link(0), LinkId::Up { .. }));
    }

    /// A reachable target is reached by descending, whatever the tiebreak.
    #[test]
    fn via_route_ignores_tiebreak_when_reachable() {
        let b = b16();
        let sw = b.switch_on_path(6, 9, 1);
        assert_eq!(
            from_switch_to_proc_via(&b, sw, 6, 3).unwrap(),
            from_switch_to_proc_via(&b, sw, 6, 0).unwrap()
        );
    }

    #[test]
    fn via_route_descends_to_stage_zero() {
        let b = Bmin::new(16, 2);
        let top = b.switch_on_path(5, 9, 3);
        let r = from_switch_to_proc_via(&b, top, 5, 0).expect("reachable");
        let path = switches(&r);
        assert_eq!(path.len(), 3);
        for (i, sw) in path.iter().enumerate() {
            assert_eq!(sw.stage as usize, 2 - i);
        }
        // Ends adjacent to processor 5's stage-0 switch.
        assert_eq!(path.last().unwrap().index, 5 / 2);
    }

    /// The ascent of a forward route retraces, reversed, the descent from
    /// its top switch. Exhaustive over all pairs.
    #[test]
    fn ascent_mirrors_descent() {
        let b = Bmin::new(16, 2);
        for a in 0u8..16 {
            for m in 0u8..16 {
                let top = b.switch_on_path(a, m, 3);
                let up = &switches(&forward(&b, a, m))[..3];
                assert_eq!(up[0].index, (a / 2) as u16);
                let mut down = switches(&from_switch_to_proc_via(&b, top, a, 0).unwrap());
                down.reverse();
                assert_eq!(up, &down[..]);
            }
        }
    }

    #[test]
    fn via_route_ascends_for_foreign_targets() {
        let b = b16();
        // Stage-0 switch of quad 0 must reach processor 12 by turning
        // around at the top stage.
        let sw = b.switch_on_path(0, 9, 0);
        let r = from_switch_to_proc_via(&b, sw, 12, 5).unwrap();
        assert!(matches!(r.link(0), LinkId::Up { .. }), "must ascend first");
        assert_eq!(r.link(r.switch_hops()), LinkId::ProcDown(12));
        // Stage sequence rises then falls.
        let stages: Vec<u8> = switches(&r).iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![1, 0]);
    }

    /// The via-route always terminates at the target, with consistent
    /// stage steps, for every (switch, target) and sampled tiebreaks.
    #[test]
    fn via_route_always_routable() {
        for bmin in [Bmin::new(16, 4), Bmin::new(16, 2)] {
            for o in 0u8..16 {
                for h in 0u8..16 {
                    for target in 0u8..16 {
                        for tb in [0u64, 1, 5, 63, 255] {
                            for sw in bmin.path_switches(o, h) {
                                let r = from_switch_to_proc_via(&bmin, sw, target, tb).unwrap();
                                assert_eq!(r.link(r.switch_hops()), LinkId::ProcDown(target));
                                let path = switches(&r);
                                for w in path.windows(2) {
                                    assert_eq!((w[0].stage as i16 - w[1].stage as i16).abs(), 1);
                                }
                                if let Some(first) = path.first() {
                                    assert_eq!(
                                        (first.stage as i16 - sw.stage as i16).abs(),
                                        1,
                                        "first hop adjacent to origin"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// All route constructors produce routes whose stages step by one.
    /// Exhaustive over endpoint pairs, sampled tiebreaks.
    #[test]
    fn routes_step_one_stage_per_hop() {
        for bmin in [Bmin::new(16, 4), Bmin::new(16, 2)] {
            for p in 0u8..16 {
                for m in 0u8..16 {
                    for tb in [0u64, 1, 13, 63] {
                        for r in [
                            forward(&bmin, p, m),
                            backward(&bmin, m, p),
                            proc_to_proc(&bmin, p, m, tb).unwrap(),
                        ] {
                            for w in switches(&r).windows(2) {
                                let diff = (w[0].stage as i16 - w[1].stage as i16).abs();
                                assert_eq!(diff, 1, "p={p} m={m} tb={tb}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Hops iteration pairs every link with its destination switch and
    /// ends with the endpoint hop. Exhaustive over endpoint pairs.
    #[test]
    fn hops_pairing() {
        let bmin = Bmin::new(16, 2);
        for p in 0u8..16 {
            for m in 0u8..16 {
                let r = forward(&bmin, p, m);
                let hops: Vec<_> = r.hops().collect();
                assert_eq!(hops.len(), r.switch_hops() + 1);
                assert!(hops.last().unwrap().switch.is_none());
                for h in &hops[..hops.len() - 1] {
                    assert!(h.switch.is_some());
                }
            }
        }
    }

    /// The table holds exactly what the per-pair constructors build, for
    /// every pair, at several shapes including the deep ones.
    #[test]
    fn route_table_matches_constructors() {
        for (n, d) in [(16usize, 4usize), (16, 2), (64, 4), (256, 4)] {
            let bmin = Bmin::new(n, d);
            let fwd = RouteTable::forward(&bmin);
            let bwd = RouteTable::backward(&bmin);
            for a in 0..n {
                for b in 0..n {
                    let (a, b) = (a as NodeId, b as NodeId);
                    assert_eq!(fwd.route(a, b), forward(&bmin, a, b), "fwd n={n} d={d}");
                    assert_eq!(fwd.route(a, b).switch_hops(), bmin.stages());
                    assert_eq!(bwd.route(a, b), backward(&bmin, a, b), "bwd n={n} d={d}");
                }
            }
        }
    }

    /// Every switch directory message target in the protocol is
    /// routable downward: any switch on the owner->home path reaches the
    /// owner without ascending.
    #[test]
    fn switch_messages_routable() {
        let bmin = Bmin::new(16, 4);
        for o in 0u8..16 {
            for h in 0u8..16 {
                for sw in bmin.path_switches(o, h) {
                    let r = from_switch_to_proc_via(&bmin, sw, o, 0).unwrap();
                    assert!(
                        links(&r).iter().all(|l| !matches!(l, LinkId::Up { .. })),
                        "o={o} h={h}"
                    );
                }
            }
        }
    }
}
