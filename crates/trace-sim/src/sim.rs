//! The Table 3 constant-latency trace simulator.

use dresar::switchdir::{GenMsg, NullProbe, SnoopAction, SwitchDirectory, SwitchLoc};
use dresar_cache::{LineState, SetAssocCache};
use dresar_directory::{DirAction, HomeDirectory, Request};
use dresar_interconnect::{routes, Bmin, SwitchId};
use dresar_stats::{BlockHistogram, ReadClass, ReadStats};
use dresar_types::addr::AddressMap;
use dresar_types::config::TraceSimConfig;
use dresar_types::msg::{Endpoint, Message, MsgType};
use dresar_types::{
    BlockAddr, Cycle, ItemView, NodeId, Protocol, RefKind, SharerSet, StreamItem, Workload,
};

/// Results of a trace-driven run.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Workload name.
    pub workload: String,
    /// Aggregated read classification/latency counters.
    pub reads: ReadStats,
    /// Execution time: max per-processor cycle count (with barrier sync).
    pub exec_cycles: Cycle,
    /// Cache hits (reads serviced inside the cache).
    pub read_hits: u64,
    /// Total writes processed.
    pub writes: u64,
    /// Home-directory counters.
    pub dir: dresar_directory::DirStats,
    /// Aggregated switch-directory counters.
    pub sd: dresar::switchdir::SdStats,
    /// Whether the simulator had switch directories. Not serialized.
    pub switch_dirs: bool,
    /// Per-block histogram (Figure 2), if requested.
    pub histogram: Option<BlockHistogram>,
}

impl TraceReport {
    /// Home-node cache-to-cache transfers (Figure 8's metric).
    pub fn home_ctoc(&self) -> u64 {
        self.reads.ctoc_home
    }

    /// Average read-miss latency (Figure 9's basis).
    pub fn avg_read_latency(&self) -> f64 {
        self.reads.avg_latency()
    }
}

impl dresar_types::ToJson for TraceReport {
    /// Machine-readable document mirroring `ExecutionReport`'s shape where
    /// the two overlap (workload/reads/dir/sd plus derived latencies), so
    /// serving clients can treat either driver's response uniformly. The
    /// per-block histogram is not serialized (same as `ExecutionReport`,
    /// whose JSON form omits it).
    fn to_json(&self) -> dresar_types::JsonValue {
        dresar_types::JsonValue::obj()
            .field("workload", self.workload.as_str())
            .field("exec_cycles", self.exec_cycles)
            .field("reads", self.reads.to_json())
            .field("read_hits", self.read_hits)
            .field("writes", self.writes)
            .field("dir", self.dir.to_json())
            .field("sd", self.sd.to_json())
            .field("avg_read_latency", self.avg_read_latency())
            .field("dirty_read_fraction", self.reads.dirty_fraction())
            .build()
    }
}

/// The trace-driven simulator.
pub struct TraceSimulator {
    cfg: TraceSimConfig,
    map: AddressMap,
    bmin: Bmin,
    caches: Vec<SetAssocCache>,
    dir: HomeDirectory,
    sdirs: Vec<Option<SwitchDirectory>>,
    exec: Vec<Cycle>,
    stats: ReadStats,
    read_hits: u64,
    writes: u64,
    histogram: Option<BlockHistogram>,
    msg_seq: u64,
    /// Class of the read currently being serviced, handed from `do_read`
    /// to `run` for latency-weighted recording.
    pending_class: Option<ReadClass>,
}

impl TraceSimulator {
    /// Builds a simulator for the configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: TraceSimConfig) -> Self {
        cfg.validate().expect("invalid trace-sim configuration");
        let bmin = Bmin::new(cfg.nodes, cfg.switch_radix as usize);
        TraceSimulator {
            map: cfg.address_map(),
            caches: (0..cfg.nodes).map(|_| SetAssocCache::new(cfg.cache)).collect(),
            dir: HomeDirectory::new(usize::MAX / 2, cfg.nodes, Protocol::Msi),
            sdirs: (0..bmin.total_switches())
                .map(|_| cfg.switch_dir.map(SwitchDirectory::new))
                .collect(),
            exec: vec![0; cfg.nodes],
            stats: ReadStats::default(),
            read_hits: 0,
            writes: 0,
            histogram: None,
            msg_seq: 0,
            pending_class: None,
            bmin,
            cfg,
        }
    }

    /// Enables Figure 2 histogram collection.
    pub fn collect_histogram(&mut self) {
        self.histogram = Some(BlockHistogram::new());
    }

    fn linear(&self, sw: SwitchId) -> usize {
        sw.stage as usize * self.bmin.switches_per_stage() + sw.index as usize
    }

    fn mk_msg(
        &mut self,
        kind: MsgType,
        block: BlockAddr,
        requester: NodeId,
        dst: NodeId,
    ) -> Message {
        self.msg_seq += 1;
        Message::new(
            self.msg_seq,
            kind,
            block,
            Endpoint::Proc(requester),
            Endpoint::Mem(dst),
            requester,
            0,
        )
    }

    /// Snoops `msg` along the switches of the `p -> home` path (in path
    /// order if `toward_home`, reversed otherwise). Returns the first
    /// non-Forward outcome with the switch it happened at, after applying
    /// any in-place marking; forwarded messages traverse all switches.
    fn walk_path(
        &mut self,
        p: NodeId,
        home: NodeId,
        msg: &mut Message,
        toward_home: bool,
    ) -> Option<(SwitchId, SnoopAction)> {
        if p == home || self.cfg.switch_dir.is_none() {
            return None;
        }
        let route = routes::forward(&self.bmin, p, home);
        let hops = route.switch_hops();
        for i in 0..hops {
            let sw = route.switch(if toward_home { i } else { hops - 1 - i });
            let idx = self.linear(sw);
            let action = match self.sdirs[idx].as_mut() {
                Some(sd) => sd.snoop(msg, SwitchLoc::default(), 0, &mut NullProbe),
                None => SnoopAction::Forward,
            };
            match action {
                SnoopAction::Forward => {}
                other => return Some((sw, other)),
            }
        }
        None
    }

    /// Hands `req` to the home directory. Transactions are atomic here, so
    /// no block is ever busy and nothing is parked or replayed.
    fn home(&mut self, block: BlockAddr, req: Request) -> Option<DirAction> {
        let out = self.dir.handle(block, req);
        debug_assert!(out.replay.is_empty(), "atomic trace model: nothing is ever parked");
        out.action
    }

    /// The owner's copyback reaches home (MSI: the owner never retains).
    fn copyback(
        &mut self,
        block: BlockAddr,
        from: NodeId,
        carried: SharerSet,
    ) -> Option<DirAction> {
        self.home(block, Request::CopyBack { from, carried, retained: false })
    }

    /// Runs the full ownership-transfer bookkeeping when `owner` supplies
    /// the block to `requester` via a read CtoC (owner downgrades, the
    /// copyback walks home and updates the directory).
    fn complete_read_ctoc(&mut self, block: BlockAddr, owner: NodeId, requester: NodeId) {
        let home = self.map.home_of_block(block);
        self.caches[owner as usize].set_state(block, LineState::Shared);
        let mut cb = self.mk_msg(MsgType::CopyBack, block, owner, home);
        cb.carried_sharers = SharerSet::singleton(requester);
        // The copyback passes the owner->home switches: cleans the
        // TRANSIENT entry and picks up any accumulated sharers.
        let _ = self.walk_path(owner, home, &mut cb, true);
        let carried = {
            let mut c = cb.carried_sharers;
            c.remove(owner);
            c
        };
        self.copyback(block, owner, carried);
    }

    /// Processes one read by processor `p`; returns the latency charged.
    fn do_read(&mut self, p: NodeId, block: BlockAddr) -> Cycle {
        let lat = self.cfg.latencies;
        if self.caches[p as usize].access(block).is_some() {
            self.read_hits += 1;
            return lat.cache_access as Cycle;
        }
        let home = self.map.home_of_block(block);

        // The request walks its path; a switch directory may intercept.
        let mut req = self.mk_msg(MsgType::ReadRequest, block, p, home);
        if let Some((_, action)) = self.walk_path(p, home, &mut req, true) {
            match action {
                SnoopAction::SinkSend(GenMsg::CtoCRequest { owner, requester }) => {
                    debug_assert_eq!(requester, p);
                    debug_assert_eq!(
                        self.caches[owner as usize].probe(block),
                        Some(LineState::Modified),
                        "switch-directory hint must point at the true owner \
                         (transactions are atomic in the trace model)"
                    );
                    self.complete_read_ctoc(block, owner, p);
                    self.fill(p, block, LineState::Shared);
                    self.record_read(block, ReadClass::DirtyCtoCSwitch);
                    return lat.switch_dir_hit as Cycle;
                }
                SnoopAction::SinkSend(_) => {
                    // A Retry cannot occur: transients resolve within one
                    // atomic transaction.
                    unreachable!("unexpected switch-directory generation for a read");
                }
                SnoopAction::Sink | SnoopAction::ForwardSend(_) => {
                    unreachable!("reads are either forwarded or sunk-with-CtoC")
                }
                SnoopAction::Forward => unreachable!("walk_path filters Forward"),
            }
        }

        // Home-node path.
        match self.home(block, Request::Read { requester: p }) {
            Some(DirAction::ReadReplyClean { .. }) => {
                self.fill(p, block, LineState::Shared);
                self.record_read(block, ReadClass::CleanMemory);
                if p == home {
                    lat.local_memory as Cycle
                } else {
                    lat.remote_memory as Cycle
                }
            }
            Some(DirAction::ForwardCtoC { owner, .. }) => {
                // The home-forwarded intervention completes atomically.
                let done = self.copyback(block, owner, SharerSet::EMPTY);
                debug_assert!(done.is_some());
                self.caches[owner as usize].set_state(block, LineState::Shared);
                // The copyback still cleans stale switch entries.
                let mut cb = self.mk_msg(MsgType::CopyBack, block, owner, home);
                let _ = self.walk_path(owner, home, &mut cb, true);
                self.fill(p, block, LineState::Shared);
                self.record_read(block, ReadClass::DirtyCtoCHome);
                if p == home {
                    lat.ctoc_local_home as Cycle
                } else {
                    lat.ctoc_remote_home as Cycle
                }
            }
            other => unreachable!("atomic trace model: unexpected {other:?}"),
        }
    }

    /// Processes one write by processor `p` (timing: always a cache hit,
    /// per the paper's release-consistency approximation; coherence: full
    /// protocol effect, executed atomically).
    fn do_write(&mut self, p: NodeId, block: BlockAddr) -> Cycle {
        self.writes += 1;
        let lat_cycles = self.cfg.latencies.cache_access as Cycle;
        if self.caches[p as usize].access(block) == Some(LineState::Modified) {
            return lat_cycles;
        }
        let home = self.map.home_of_block(block);

        // The ownership request invalidates stale switch entries en route.
        let mut req = self.mk_msg(MsgType::WriteRequest, block, p, home);
        let intercepted = self.walk_path(p, home, &mut req, true);
        debug_assert!(intercepted.is_none(), "no TRANSIENT entries persist between ops");

        match self.home(block, Request::Write { requester: p }) {
            Some(DirAction::WriteReplyGrant { .. }) => {}
            Some(DirAction::Invalidate { targets, .. }) => {
                for t in targets.iter() {
                    self.caches[t as usize].invalidate(block);
                    let done = self.home(block, Request::InvalAck);
                    debug_assert!(matches!(done, None | Some(DirAction::WriteReplyGrant { .. })));
                }
            }
            Some(DirAction::ForwardCtoC { owner, .. }) => {
                // The intervention travels home -> owner, invalidating the
                // stale MODIFIED entries recorded along the old owner's
                // path (they would otherwise mis-route later reads).
                let mut intervention = self.mk_msg(MsgType::CtoCRequest, block, p, home);
                let _ = self.walk_path(owner, home, &mut intervention, false);
                self.caches[owner as usize].invalidate(block);
                self.copyback(block, owner, SharerSet::EMPTY);
            }
            other => unreachable!("atomic trace model: unexpected {other:?}"),
        }
        debug_assert_eq!(self.dir.state(block), dresar_directory::DirState::Modified(p));

        // The ownership reply flows home -> writer, installing entries.
        let mut reply = self.mk_msg(MsgType::WriteReply, block, p, home);
        let _ = self.walk_path(p, home, &mut reply, false);

        self.fill(p, block, LineState::Modified);
        lat_cycles
    }

    /// Installs a block, handling dirty evictions (instant writebacks that
    /// clean switch entries and free the directory state).
    fn fill(&mut self, p: NodeId, block: BlockAddr, state: LineState) {
        if let Some((victim, LineState::Modified)) = self.caches[p as usize].insert(block, state) {
            let vh = self.map.home_of_block(victim);
            let mut wb = self.mk_msg(MsgType::WriteBack, victim, p, vh);
            let _ = self.walk_path(p, vh, &mut wb, true);
            let carried = {
                let mut c = wb.carried_sharers;
                c.remove(p);
                c
            };
            self.home(victim, Request::WriteBack { from: p, carried });
        }
    }

    fn record_read(&mut self, block: BlockAddr, class: ReadClass) {
        if let Some(h) = self.histogram.as_mut() {
            h.record_miss(block, class != ReadClass::CleanMemory);
        }
        self.pending_class = Some(class);
    }

    /// Runs a workload to completion and reports.
    pub fn run(mut self, workload: &Workload) -> TraceReport {
        workload.validate().expect("invalid workload");
        assert!(workload.streams.len() <= self.cfg.nodes);
        let n = self.cfg.nodes;
        let mut pc = vec![0usize; n];
        let streams: Vec<&[StreamItem]> =
            (0..n).map(|p| workload.streams.get(p).map(|s| s.as_slice()).unwrap_or(&[])).collect();

        loop {
            // Phase 1: round-robin refs until everyone is at a barrier/end.
            let mut progressed = true;
            while progressed {
                progressed = false;
                for p in 0..n {
                    if let Some(ItemView::Ref(r)) = streams[p].get(pc[p]).map(|i| i.decode()) {
                        let block = self.map.block(r.addr);
                        let work = r.work as Cycle; // single-issue
                        let access = match r.kind {
                            RefKind::Read => {
                                let lat = self.do_read(p as NodeId, block);
                                if let Some(class) = self.pending_class.take() {
                                    self.stats.record(class, lat);
                                    self.stats.stall_cycles += lat;
                                }
                                lat
                            }
                            RefKind::Write => self.do_write(p as NodeId, block),
                        };
                        self.exec[p] += work + access;
                        pc[p] += 1;
                        progressed = true;
                    }
                }
            }
            // Phase 2: everyone is at a barrier or done; advance barriers.
            let mut advanced = false;
            for p in 0..n {
                if streams[p].get(pc[p]).is_some_and(|i| i.is_barrier()) {
                    pc[p] += 1;
                    advanced = true;
                }
            }
            if advanced {
                // Barrier synchronizes time.
                let t = *self.exec.iter().max().unwrap();
                for e in &mut self.exec {
                    *e = t;
                }
            } else {
                break;
            }
        }

        let mut sd = dresar::switchdir::SdStats::default();
        for s in self.sdirs.iter().flatten() {
            sd.merge(&s.stats());
        }
        TraceReport {
            workload: workload.name.clone(),
            reads: self.stats,
            exec_cycles: *self.exec.iter().max().unwrap_or(&0),
            read_hits: self.read_hits,
            writes: self.writes,
            dir: self.dir.stats(),
            sd,
            switch_dirs: self.cfg.switch_dir.is_some(),
            histogram: self.histogram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::StreamItem;

    fn cfg(sd: bool) -> TraceSimConfig {
        if sd {
            TraceSimConfig::paper_table3()
        } else {
            TraceSimConfig::paper_base()
        }
    }

    fn wl(streams: Vec<Vec<StreamItem>>) -> Workload {
        Workload { name: "t".into(), streams }
    }

    /// A remote block address homed at the given node.
    fn addr_homed_at(node: u64) -> u64 {
        node * 4096
    }

    #[test]
    fn clean_remote_read_costs_260() {
        let w = wl(vec![vec![StreamItem::read(addr_homed_at(5), 0)]]);
        let r = TraceSimulator::new(cfg(false)).run(&w);
        assert_eq!(r.reads.clean, 1);
        assert_eq!(r.reads.latency_cycles, 260);
    }

    #[test]
    fn clean_local_read_costs_100() {
        let w = wl(vec![vec![StreamItem::read(addr_homed_at(0), 0)]]);
        let r = TraceSimulator::new(cfg(false)).run(&w);
        assert_eq!(r.reads.latency_cycles, 100);
    }

    #[test]
    fn cache_hit_costs_8() {
        let w = wl(vec![vec![
            StreamItem::read(addr_homed_at(5), 0),
            StreamItem::read(addr_homed_at(5), 0),
        ]]);
        let r = TraceSimulator::new(cfg(false)).run(&w);
        assert_eq!(r.read_hits, 1);
        assert_eq!(r.exec_cycles, 260 + 8);
    }

    #[test]
    fn dirty_read_home_path_costs_320() {
        let w = wl(vec![
            vec![StreamItem::write(addr_homed_at(5), 0), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(addr_homed_at(5), 0)],
        ]);
        let r = TraceSimulator::new(cfg(false)).run(&w);
        assert_eq!(r.reads.ctoc_home, 1);
        assert_eq!(r.reads.latency_cycles, 320);
        assert_eq!(r.dir.reads_ctoc, 1);
    }

    #[test]
    fn switch_directory_serves_dirty_read_at_200() {
        let w = wl(vec![
            vec![StreamItem::write(addr_homed_at(5), 0), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(addr_homed_at(5), 0)],
        ]);
        let r = TraceSimulator::new(cfg(true)).run(&w);
        assert_eq!(r.reads.ctoc_switch, 1, "switch directory must intercept");
        assert_eq!(r.reads.latency_cycles, 200);
        assert_eq!(r.dir.reads_ctoc, 0);
        assert!(r.sd.read_hits >= 1);
    }

    #[test]
    fn local_accesses_bypass_switch_directories() {
        // Writer's home == writer: no reply path, no entries, so the later
        // remote read goes to the home.
        let w = wl(vec![
            vec![StreamItem::write(addr_homed_at(0), 0), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(addr_homed_at(0), 0)],
        ]);
        let r = TraceSimulator::new(cfg(true)).run(&w);
        assert_eq!(r.reads.ctoc_switch, 0);
        assert_eq!(r.reads.ctoc_home, 1);
    }

    #[test]
    fn directory_stays_exact_after_switch_serve() {
        // write by 1 (home 5), read by 2 via switch, then write by 3 must
        // see both sharers.
        let a = addr_homed_at(5);
        let w = wl(vec![
            vec![StreamItem::barrier(0), StreamItem::barrier(1)],
            vec![StreamItem::write(a, 0), StreamItem::barrier(0), StreamItem::barrier(1)],
            vec![StreamItem::barrier(0), StreamItem::read(a, 0), StreamItem::barrier(1)],
            vec![StreamItem::barrier(0), StreamItem::barrier(1), StreamItem::write(a, 0)],
        ]);
        let r = TraceSimulator::new(cfg(true)).run(&w);
        assert_eq!(r.reads.ctoc_switch, 1);
        assert!(r.dir.invals_sent >= 2, "both owner and switch-served sharer invalidated");
    }

    #[test]
    fn write_after_write_transfers_ownership() {
        let a = addr_homed_at(7);
        let w = wl(vec![
            vec![StreamItem::write(a, 0), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::write(a, 0)],
        ]);
        let r = TraceSimulator::new(cfg(false)).run(&w);
        assert_eq!(r.dir.writes_ctoc, 1);
        assert_eq!(r.writes, 2);
    }

    #[test]
    fn barriers_synchronize_exec_time() {
        let w = wl(vec![
            vec![StreamItem::read(addr_homed_at(1), 100), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(addr_homed_at(2), 0)],
        ]);
        let r = TraceSimulator::new(cfg(false)).run(&w);
        // Proc 1's read starts only after proc 0's work+miss.
        assert_eq!(r.exec_cycles, (100 + 260) + 260);
    }

    #[test]
    fn histogram_collects_misses() {
        let mut sim = TraceSimulator::new(cfg(false));
        sim.collect_histogram();
        let w = wl(vec![vec![
            StreamItem::read(addr_homed_at(1), 0),
            StreamItem::read(addr_homed_at(2), 0),
        ]]);
        let r = sim.run(&w);
        let h = r.histogram.unwrap();
        assert_eq!(h.total_misses(), 2);
        assert_eq!(h.total_ctocs(), 0);
    }

    #[test]
    fn forward_route_names_the_path_switches() {
        for (nodes, radix) in [(16, 4), (16, 2), (64, 4)] {
            let bmin = Bmin::new(nodes, radix);
            for p in 0..nodes as NodeId {
                for m in 0..nodes as NodeId {
                    let route = routes::forward(&bmin, p, m);
                    let walked: Vec<SwitchId> =
                        (0..route.switch_hops()).map(|i| route.switch(i)).collect();
                    assert_eq!(walked, bmin.path_switches(p, m), "{nodes}x{radix}: {p} -> {m}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let w = dresar_workloads::commercial::tpcc(16, 20_000, 42);
        let a = TraceSimulator::new(cfg(true)).run(&w);
        let b = TraceSimulator::new(cfg(true)).run(&w);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.exec_cycles, b.exec_cycles);
    }
}
