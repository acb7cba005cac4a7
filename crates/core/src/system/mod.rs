//! The execution-driven CC-NUMA system simulator (paper §5.1, Table 2).
//!
//! A [`System`] assembles, per node, a 4-issue processor with release
//! consistency and a write buffer, an inclusive L1/L2 MSI hierarchy, a slice
//! of the distributed memory with its full-map directory, and — between the
//! processor and memory interfaces — the wormhole BMIN whose every switch
//! hosts a DRESAR switch directory (when enabled).
//!
//! Processors execute [`dresar_types::Workload`] reference streams: reads
//! block the core (read stall time), writes retire through the write buffer,
//! and barriers synchronize phases. Every miss becomes protocol messages
//! routed hop-by-hop through the interconnect; switch directories snoop each
//! hop and may sink, re-route or answer messages per the Figure 4 FSM.
//!
//! The simulator is deterministic: event ties break by schedule order and
//! no randomness is used outside workload generation.

mod coherence;
mod node;
mod report;

pub use coherence::{CoherenceOutcome, CoherenceViolation};
pub use node::{DeferredIntervention, Mshr, MshrKind, Node, ProcState};
pub use report::ExecutionReport;

use crate::switchdir::{GenMsg, SnoopAction, SwitchDirectory};
use dresar_cache::{AccessOutcome, CacheHierarchy, LineState};
use dresar_directory::{DirAction, HomeDirectory, Request};
use dresar_engine::{BankedResource, EventQueue, Resource};
use dresar_faults::{
    FaultPlan, FaultSession, LaunchVerdict, SimError, StuckMsg, Watchdog, WatchdogConfig,
    WatchdogKind,
};
use dresar_interconnect::routes::{self, Route};
use dresar_interconnect::{Bmin, HopNetwork, SwitchId};
use dresar_obs::{
    EventLog, HomeTransition, MachineShape, NullProbe, ObsReport, ObserverConfig, ObserverSet,
    Probe, ServicePoint, SwitchLoc,
};
use dresar_stats::ReadClass;
use dresar_types::addr::AddressMap;
use dresar_types::config::SystemConfig;
use dresar_types::msg::{Endpoint, Message, MsgType};
use dresar_types::{BlockAddr, Cycle, ItemView, NodeId, Protocol, RefKind, Workload};

/// Options for one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Abort (panic) if simulated time exceeds this bound — catches
    /// protocol livelock in tests instead of hanging.
    pub max_cycles: Cycle,
    /// Observers to attach: latency breakdown, time series, contention
    /// heatmap, and the event log with its two renderings (trace and
    /// flight dump). By default only the event log's bounded flight ring
    /// is on — it is the always-on black box, surfaced in the report only
    /// when the run is anomalous (watchdog trip, coherence failure, lost
    /// messages or sim errors). Pass `ObserverConfig::default()` explicitly
    /// for a fully uninstrumented run.
    pub observers: ObserverConfig,
    /// Deterministic fault-injection plan. `None` (and an inert
    /// [`FaultPlan::default`]) run fault-free.
    pub faults: Option<FaultPlan>,
    /// Coherence watchdog. When set, livelock / quiescence failures /
    /// budget overruns produce a structured [`dresar_faults::WatchdogReport`]
    /// in the [`ExecutionReport`] instead of a panic or a hang.
    pub watchdog: Option<WatchdogConfig>,
    /// Run the end-of-run coherence invariant checker and attach its
    /// [`CoherenceOutcome`] to the report.
    pub verify_coherence: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_cycles: 1 << 40,
            observers: ObserverConfig {
                flight: Some(dresar_obs::DEFAULT_FLIGHT_CAPACITY),
                ..ObserverConfig::default()
            },
            faults: None,
            watchdog: None,
            verify_coherence: false,
        }
    }
}

/// Simulation events. A message event names the [`Flights`] slot its
/// message rides in, so an event stays small and the hot loop does not
/// allocate.
enum Ev {
    /// Processor resumes stream execution.
    Proc(NodeId),
    /// The header of the message in this slot arrives at its
    /// `route.link(hop)`'s far side.
    Msg(u32),
    /// The home directory/DRAM finished processing the message in `slot`;
    /// execute the FSM.
    HomeExec {
        /// Home node.
        home: NodeId,
        /// Slot of the processed message.
        slot: u32,
    },
    /// A NAK'd transaction re-issues.
    Retry {
        /// Retrying node.
        node: NodeId,
        /// Block of the NAK'd transaction.
        block: BlockAddr,
    },
    /// A dropped message retransmits from its source (fault injection).
    Relaunch {
        /// Slot of the message, re-entering its route at hop 0.
        slot: u32,
        /// Retransmission attempt number (1 = first retry).
        attempt: u32,
    },
}

// The event queue moves every event several times; unboxing the message
// into `Ev` once made it 136 bytes and slowed every run.
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// A message in transit.
#[derive(Clone, Copy)]
struct InFlight {
    msg: Message,
    route: Route,
    hop: usize,
}

/// The messages in transit: a slab of [`InFlight`] slots. A message keeps
/// its slot from launch until it is delivered, sunk, lost or, at a home,
/// executed; freed slots are reused last in, first out, so the slab only
/// grows with the peak number of messages in flight.
#[derive(Default)]
struct Flights {
    slots: Vec<InFlight>,
    free: Vec<u32>,
}

impl Flights {
    fn insert(&mut self, flight: InFlight) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = flight;
                slot
            }
            None => {
                self.slots.push(flight);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Frees `slot` and returns its message.
    fn remove(&mut self, slot: u32) -> Message {
        self.free.push(slot);
        self.slots[slot as usize].msg
    }

    fn get(&self, slot: u32) -> &InFlight {
        &self.slots[slot as usize]
    }

    fn get_mut(&mut self, slot: u32) -> &mut InFlight {
        &mut self.slots[slot as usize]
    }

    /// Slots a message holds.
    fn held(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Barrier rendezvous. Tracks only the arrival count — the old per-node
/// `arrived: u64` bitmask was write-only and capped the machine at 64
/// nodes (`1u64 << p` overflows for p >= 64).
#[derive(Debug, Default)]
struct BarrierState {
    count: usize,
    max_time: Cycle,
}

/// The assembled machine. It borrows each processor's reference stream
/// from the [`Workload`] it was built with.
pub struct System<'w> {
    cfg: SystemConfig,
    map: AddressMap,
    bmin: Bmin,
    /// `bmin.switches_per_stage()`, kept so a hop's switch index costs no
    /// division.
    switches_per_stage: usize,
    net: HopNetwork,
    nodes: Vec<Node<'w>>,
    homes: Vec<HomeDirectory>,
    home_ctrl: Vec<Resource>,
    dram: Vec<BankedResource>,
    sdirs: Vec<Option<SwitchDirectory>>,
    queue: EventQueue<Ev>,
    flights: Flights,
    msg_seq: u64,
    /// Transaction ids: one per tracked miss, stable across retries,
    /// coalesced upgrades and cache-to-cache forwards. Distinct from
    /// `msg_seq` so message retransmission never perturbs the causal ids.
    txn_seq: u64,
    barrier: BarrierState,
    workload: String,
    writebacks: u64,
    end_time: Cycle,
    faults: Option<FaultSession>,
    watchdog: Option<Watchdog>,
    sim_errors: Vec<SimError>,
    lost_log: Vec<String>,
}

impl<'w> System<'w> {
    /// Builds a system for `cfg` loaded with `workload` (streams beyond
    /// `cfg.nodes` are rejected; missing streams run empty).
    ///
    /// # Panics
    /// Panics if the configuration or workload fails validation.
    pub fn new(cfg: SystemConfig, workload: &'w Workload) -> Self {
        cfg.validate().expect("invalid system configuration");
        workload.validate().expect("invalid workload");
        assert!(
            workload.streams.len() <= cfg.nodes,
            "workload has more streams ({}) than nodes ({})",
            workload.streams.len(),
            cfg.nodes
        );
        let map = cfg.address_map();
        let bmin = Bmin::new(cfg.nodes, cfg.switch.radix as usize);
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let stream = workload.streams.get(i).map_or(&[][..], Vec::as_slice);
                Node::new(i as NodeId, CacheHierarchy::new(cfg.l1, cfg.l2), stream)
            })
            .collect();
        let sdirs =
            (0..bmin.total_switches()).map(|_| cfg.switch_dir.map(SwitchDirectory::new)).collect();
        System {
            map,
            switches_per_stage: bmin.switches_per_stage(),
            bmin,
            net: HopNetwork::new(cfg.switch, cfg.nodes),
            nodes,
            homes: (0..cfg.nodes).map(|_| HomeDirectory::new(8, cfg.nodes, cfg.protocol)).collect(),
            home_ctrl: vec![Resource::new(); cfg.nodes],
            dram: (0..cfg.nodes)
                .map(|_| BankedResource::new(cfg.memory.interleave as usize))
                .collect(),
            sdirs,
            queue: EventQueue::new(),
            flights: Flights::default(),
            msg_seq: 0,
            txn_seq: 0,
            barrier: BarrierState::default(),
            workload: workload.name.clone(),
            writebacks: 0,
            end_time: 0,
            faults: None,
            watchdog: None,
            sim_errors: Vec::new(),
            lost_log: Vec::new(),
            cfg,
        }
    }

    fn next_id(&mut self) -> u64 {
        self.msg_seq += 1;
        self.msg_seq
    }

    fn next_txn(&mut self) -> u64 {
        self.txn_seq += 1;
        self.txn_seq
    }

    /// Transaction id of `p`'s outstanding miss on `block` (0 if none).
    fn txn_of(&self, p: NodeId, block: BlockAddr) -> u64 {
        self.nodes[p as usize].mshrs.get(&block).map_or(0, |m| m.txn)
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Panics
    /// Panics on protocol deadlock (event queue drains with undrained
    /// nodes) or when `opts.max_cycles` is exceeded (livelock guard).
    ///
    /// The probe follows `opts.observers`: with the flight recorder alone
    /// (the default) it is the event log's flight ring itself, so every
    /// hook the ring does not record compiles away; with any other
    /// observer on it is an [`ObserverSet`]; with none, [`NullProbe`].
    pub fn run(self, opts: RunOptions) -> ExecutionReport {
        let shape = MachineShape { nodes: self.cfg.nodes, switches: self.bmin.total_switches() };
        if let Some(capacity) = opts.observers.flight_only() {
            let mut log = EventLog::flight_only(capacity, shape);
            let report = self.run_probed(opts, &mut log);
            attach_observations(report, log.finish())
        } else if opts.observers.enabled() {
            let mut set = ObserverSet::new(opts.observers, shape);
            let report = self.run_probed(opts, &mut set);
            attach_observations(report, set.finish())
        } else {
            self.run_probed(opts, &mut NullProbe)
        }
    }

    /// [`System::run`] generic over the attached [`Probe`]. With
    /// [`NullProbe`] every hook inlines to nothing.
    pub fn run_probed<P: Probe>(mut self, opts: RunOptions, probe: &mut P) -> ExecutionReport {
        if let Some(plan) = opts.faults.filter(FaultPlan::is_active) {
            self.faults = Some(FaultSession::new(plan));
        }
        self.watchdog = opts.watchdog.map(Watchdog::new);
        for p in 0..self.cfg.nodes {
            self.queue.schedule_at(0, Ev::Proc(p as NodeId));
        }
        while let Some((t, ev)) = self.queue.pop() {
            if t > opts.max_cycles {
                if self.watchdog.is_some() {
                    let cause = format!("exceeded max_cycles={}", opts.max_cycles);
                    self.trip_watchdog(WatchdogKind::BudgetExceeded, t, cause);
                    break;
                }
                panic!(
                    "simulation exceeded {} cycles: livelock or runaway workload \
                     (workload={}, pending events={})",
                    opts.max_cycles,
                    self.workload,
                    self.queue.len()
                );
            }
            if self.watchdog.as_ref().is_some_and(|wd| wd.check_livelock(t)) {
                self.trip_watchdog(WatchdogKind::Livelock, t, "no forward progress".into());
                break;
            }
            if self.faults.is_some() {
                self.apply_fault_epochs(t);
            }
            self.end_time = self.end_time.max(t);
            probe.tick(t, self.queue.len());
            match ev {
                Ev::Proc(p) => self.on_proc(p, t, probe),
                Ev::Msg(slot) => self.on_msg(slot, t, probe),
                Ev::HomeExec { home, slot } => self.on_home_exec(home, slot, t, probe),
                Ev::Retry { node, block } => self.on_retry(node, block, t, probe),
                Ev::Relaunch { slot, attempt } => self.launch_attempt(slot, t, attempt, probe),
            }
        }
        // A drained queue holds no message, so every slot must be free: a
        // held one is a message the simulator forgot.
        debug_assert!(
            !self.queue.is_empty() || self.flights.held() == 0,
            "event queue drained with {} message slot(s) held",
            self.flights.held()
        );
        let tripped = self.watchdog.as_ref().is_some_and(Watchdog::tripped);
        if !tripped {
            let stuck: Vec<&Node> = self.nodes.iter().filter(|n| !n.drained()).collect();
            if let Some(n) = stuck.first() {
                if self.watchdog.is_some() {
                    let cause =
                        format!("event queue drained with {} undrained node(s)", stuck.len());
                    self.trip_watchdog(WatchdogKind::QuiescenceFailure, self.end_time, cause);
                } else {
                    panic!(
                        "protocol deadlock: node {} stuck in {:?} with {} MSHRs (workload={})",
                        n.id,
                        n.state,
                        n.mshrs.len(),
                        self.workload
                    );
                }
            }
        }
        self.build_report(opts.verify_coherence)
    }

    /// Trips the watchdog with the stuck lineage and a detail line: `cause`,
    /// then the workload, the pending event count (unless the queue
    /// drained) and the lost-message log.
    fn trip_watchdog(&mut self, kind: WatchdogKind, at: Cycle, cause: String) {
        let lineage = self.stuck_lineage();
        let pending = match kind {
            WatchdogKind::QuiescenceFailure => String::new(),
            _ => format!(", pending events={}", self.queue.len()),
        };
        let detail =
            format!("{cause} (workload={}{pending}, lost={:?})", self.workload, self.lost_log);
        if let Some(wd) = self.watchdog.as_mut() {
            wd.trip(kind, at, lineage, detail);
        }
    }

    /// Lineage of every unfinished transaction, sorted for determinism
    /// (MSHR maps iterate in arbitrary order).
    fn stuck_lineage(&self) -> Vec<StuckMsg> {
        let mut lineage = Vec::new();
        for n in &self.nodes {
            for (&block, m) in &n.mshrs {
                lineage.push(StuckMsg {
                    node: n.id,
                    block,
                    kind: match m.kind {
                        MshrKind::Read => "read",
                        MshrKind::Write => "write",
                    },
                    txn: m.txn,
                    issued_at: m.issued_at,
                    retry_pending: m.retry_pending,
                });
            }
        }
        lineage.sort_by_key(|s| (s.node, s.block.0));
        lineage
    }

    /// Fires any fault epochs (ECC scrub pulses, the eviction storm, the
    /// whole-switch disable/enable latches) that became due at `t`.
    fn apply_fault_epochs(&mut self, t: Cycle) {
        let Some(fs) = self.faults.as_mut() else { return };
        let scrubs = fs.due_scrubs(t);
        let storm = fs.storm_due(t);
        let disable = fs.disable_due(t);
        let enable = fs.enable_due(t);
        let mut scrubbed = 0u64;
        let mut storm_evicted = 0u64;
        for epoch in scrubs {
            let nonce_of = |sw: u64| self.faults.as_ref().map(|f| f.scrub_nonce(epoch, sw));
            for i in 0..self.sdirs.len() {
                let Some(nonce) = nonce_of(i as u64) else { continue };
                if let Some(sd) = self.sdirs[i].as_mut() {
                    if sd.scrub(nonce).is_some() {
                        scrubbed += 1;
                    }
                }
            }
        }
        if let Some(n) = storm {
            for i in 0..self.sdirs.len() {
                let nonce =
                    self.faults.as_ref().map(|f| f.scrub_nonce(u64::MAX, i as u64)).unwrap_or(0);
                if let Some(sd) = self.sdirs[i].as_mut() {
                    storm_evicted += u64::from(sd.force_evict(n, nonce));
                }
            }
        }
        if disable {
            for sd in self.sdirs.iter_mut().flatten() {
                sd.set_disabled(true);
            }
        }
        if enable {
            for sd in self.sdirs.iter_mut().flatten() {
                sd.set_disabled(false);
            }
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.stats.scrubbed += scrubbed;
            fs.stats.storm_evicted += storm_evicted;
            if disable {
                fs.stats.sd_disables += 1;
            }
            if enable {
                fs.stats.sd_enables += 1;
            }
        }
    }

    fn build_report(mut self, verify_coherence: bool) -> ExecutionReport {
        // Directory-level protocol violations (out-of-range node ids, stray
        // inval acks) become structured sim errors so a release run can
        // never silently corrupt sharer state. Home order keeps this
        // deterministic.
        for h in &mut self.homes {
            for e in h.take_errors() {
                self.sim_errors.push(SimError::Protocol { context: e.context, detail: e.detail });
            }
        }
        let mut r = ExecutionReport {
            workload: std::mem::take(&mut self.workload),
            cycles: self.end_time,
            network_hops: self.net.messages_moved(),
            writebacks: self.writebacks,
            ..Default::default()
        };
        for n in &self.nodes {
            r.reads.merge(&n.reads);
            r.refs_executed += n.refs_executed;
        }
        for h in &self.homes {
            r.dir.merge(&h.stats());
        }
        for s in self.sdirs.iter().flatten() {
            r.sd.merge(&s.stats());
        }
        if verify_coherence {
            r.coherence = Some(coherence::check(&self));
        }
        r.metrics = self.snapshot_metrics(&r);
        r.faults = self.faults.as_ref().map(|fs| fs.stats);
        r.sim_errors = self.sim_errors.iter().map(SimError::to_string).collect();
        r.watchdog = self.watchdog.take().and_then(Watchdog::into_report);
        r
    }

    /// Assembles the deterministic component-metrics registry from every
    /// structure's counters. Runs once, after the simulation, so it costs
    /// the hot loops nothing. Names follow `component.sub.metric`; merge
    /// semantics are sum for counts and max-across-instances for gauges —
    /// both the `current` and `peak` side, so every gauge satisfies
    /// `current <= peak` (mixing scopes is how `sd.occupancy` once reported
    /// a current above its own high-water mark).
    fn snapshot_metrics(&self, r: &ExecutionReport) -> dresar_obs::MetricsRegistry {
        let mut m = dresar_obs::MetricsRegistry::new();

        // Simulated time (lets tools compute cycles/sec without re-parsing
        // the enclosing report).
        m.counter("sim.cycles", r.cycles);

        // Event engine: queue pressure.
        m.counter("engine.queue.scheduled", self.queue.scheduled_total());
        m.gauge("engine.queue.depth", self.queue.len() as u64, self.queue.peak_len() as u64);

        // Processor-side totals.
        m.counter("proc.refs_executed", r.refs_executed);
        m.counter("reads.clean", r.reads.clean);
        m.counter("reads.ctoc_home", r.reads.ctoc_home);
        m.counter("reads.ctoc_switch", r.reads.ctoc_switch);
        m.counter("reads.latency_cycles", r.reads.latency_cycles);
        m.counter("reads.stall_cycles", r.reads.stall_cycles);
        m.counter("reads.retries", r.reads.retries);

        // Cache hierarchy, aggregated over nodes.
        let mut cache = dresar_cache::HierarchyStats::default();
        for n in &self.nodes {
            cache.merge(&n.hier.stats());
        }
        m.counter("cache.l1_read_hits", cache.l1_read_hits);
        m.counter("cache.l2_read_hits", cache.l2_read_hits);
        m.counter("cache.read_misses", cache.read_misses);
        m.counter("cache.write_hits", cache.write_hits);
        m.counter("cache.write_upgrades", cache.write_upgrades);
        m.counter("cache.write_misses", cache.write_misses);
        m.counter("cache.fills", cache.fills);
        m.counter("cache.writebacks", cache.writebacks);
        m.counter("cache.ctoc_serves", cache.ctoc_serves);

        // Home directories (FSM occupancy peaks are max over homes).
        m.counter("home.lookups", r.dir.lookups);
        m.counter("home.reads_clean", r.dir.reads_clean);
        m.counter("home.reads_ctoc", r.dir.reads_ctoc);
        m.counter("home.writes_ctoc", r.dir.writes_ctoc);
        m.counter("home.inval_rounds", r.dir.inval_rounds);
        m.counter("home.invals_sent", r.dir.invals_sent);
        m.counter("home.naks", r.dir.naks);
        m.counter("home.queued", r.dir.queued);
        m.counter("home.marked_completions", r.dir.marked_completions);
        // Per-instance scope on both sides: `current` is the busiest single
        // home's end-of-run occupancy and `peak` the busiest single home's
        // high-water mark, so `current <= peak` holds by construction. A
        // quiesced run reports zero; residual busy/pending entries cross-
        // check the coherence audit's quiescence verdict.
        let home_busy = self.homes.iter().map(HomeDirectory::busy_now).max().unwrap_or(0);
        let home_pending = self.homes.iter().map(HomeDirectory::pending_now).max().unwrap_or(0);
        m.gauge("home.busy", home_busy, r.dir.peak_busy);
        m.gauge("home.pending", home_pending, r.dir.peak_pending);

        // Home controller + DRAM banks as contended resources.
        let (mut ctrl_acq, mut ctrl_stall, mut ctrl_busy) = (0u64, 0u64, 0u64);
        for c in &self.home_ctrl {
            ctrl_acq += c.acquisitions();
            ctrl_stall += c.stall_cycles();
            ctrl_busy += c.occupied_cycles();
        }
        m.counter("home.ctrl.acquisitions", ctrl_acq);
        m.counter("home.ctrl.stall_cycles", ctrl_stall);
        m.counter("home.ctrl.busy_cycles", ctrl_busy);
        let (mut dram_acq, mut dram_stall, mut dram_busy) = (0u64, 0u64, 0u64);
        for d in &self.dram {
            dram_acq += d.acquisitions();
            dram_stall += d.stall_cycles();
            dram_busy += d.occupied_cycles();
        }
        m.counter("dram.acquisitions", dram_acq);
        m.counter("dram.stall_cycles", dram_stall);
        m.counter("dram.busy_cycles", dram_busy);

        // Switch directories (present only when configured).
        if self.sdirs.iter().any(Option::is_some) {
            // Per-instance scope, matching `SdStats::merge` (peaks are the
            // busiest *single* switch's high-water mark): `current` must use
            // the same aggregation or it can exceed its own peak, as the
            // committed telemetry once did by summing across switches.
            let occupancy: u64 =
                self.sdirs.iter().flatten().map(|s| s.occupancy() as u64).max().unwrap_or(0);
            let transients: u64 =
                self.sdirs.iter().flatten().map(|s| s.transient_count() as u64).max().unwrap_or(0);
            m.counter("sd.snoops", r.sd.snoops);
            m.counter("sd.inserts", r.sd.inserts);
            m.counter("sd.inserts_blocked", r.sd.inserts_blocked);
            m.counter("sd.read_hits", r.sd.read_hits);
            m.counter("sd.transient_retries", r.sd.transient_retries);
            m.counter("sd.readers_accumulated", r.sd.readers_accumulated);
            m.counter("sd.invalidations", r.sd.invalidations);
            m.counter("sd.write_retries", r.sd.write_retries);
            m.counter("sd.copybacks_marked", r.sd.copybacks_marked);
            m.counter("sd.writeback_replies", r.sd.writeback_replies);
            m.counter("sd.evictions", r.sd.evictions);
            m.counter("sd.evictions_transient", r.sd.evictions_transient);
            m.gauge("sd.occupancy", occupancy, r.sd.peak_occupancy);
            m.gauge("sd.transients", transients, r.sd.peak_transients);
        }

        // Interconnect links.
        let (link_acq, link_stall) = self.net.contention();
        m.counter("net.messages", self.net.messages_moved());
        m.counter("net.flits", self.net.flits_moved());
        m.counter("net.link_acquisitions", link_acq);
        m.counter("net.link_stall_cycles", link_stall);
        m.counter("net.writebacks", self.writebacks);

        // Fault injection and robustness (present only when active, so
        // fault-free telemetry is unchanged byte-for-byte).
        if let Some(fs) = &self.faults {
            m.counter("faults.dropped", fs.stats.dropped);
            m.counter("faults.retransmissions", fs.stats.retransmissions);
            m.counter("faults.lost", fs.stats.lost);
            m.counter("faults.scrubbed", fs.stats.scrubbed);
            m.counter("faults.storm_evicted", fs.stats.storm_evicted);
            m.counter("faults.sd_disables", fs.stats.sd_disables);
            m.counter("faults.sd_enables", fs.stats.sd_enables);
        }
        if let Some(wd) = self.watchdog.as_ref().and_then(Watchdog::report) {
            m.counter("watchdog.tripped", 1);
            m.counter("watchdog.at", wd.at);
            m.counter("watchdog.stuck_transactions", wd.lineage.len() as u64);
        }
        if !self.sim_errors.is_empty() {
            m.counter("errors.sim", self.sim_errors.len() as u64);
        }

        m
    }

    // ------------------------------------------------------------------
    // Processor execution
    // ------------------------------------------------------------------

    fn on_proc<P: Probe>(&mut self, p: NodeId, t: Cycle, probe: &mut P) {
        let issue_width = self.cfg.processor.issue_width as Cycle;
        let wb_cap = self.cfg.processor.write_buffer_entries;
        let mut t = t.max(self.nodes[p as usize].local_time);
        loop {
            let node = &mut self.nodes[p as usize];
            if node.state != ProcState::Ready {
                return;
            }
            let Some(item) = node.items.get(node.pc).copied() else {
                node.state = ProcState::Done;
                node.local_time = t;
                return;
            };
            match item.decode() {
                ItemView::Barrier(id) => {
                    node.pc += 1;
                    node.local_time = t;
                    if node.writes_inflight > 0 {
                        // Release semantics: prior stores must complete
                        // before the barrier is announced.
                        node.state = ProcState::DrainForBarrier(id);
                    } else {
                        node.state = ProcState::AtBarrier(id);
                        self.barrier_arrive(t);
                    }
                    return;
                }
                ItemView::Ref(r) => {
                    t += (r.work as Cycle).div_ceil(issue_width);
                    let block = self.map.block(r.addr);
                    match r.kind {
                        RefKind::Read => match self.nodes[p as usize].hier.read(block) {
                            AccessOutcome::L1Hit { latency } | AccessOutcome::L2Hit { latency } => {
                                t += latency as Cycle;
                                let node = &mut self.nodes[p as usize];
                                node.pc += 1;
                                node.refs_executed += 1;
                            }
                            outcome => {
                                let t_miss = t + outcome.latency() as Cycle;
                                let node = &mut self.nodes[p as usize];
                                node.state = ProcState::WaitRead(block);
                                node.stall_since = t;
                                node.local_time = t;
                                if node.mshrs.contains_key(&block) {
                                    // A write to this block is already in
                                    // flight: wait for its completion; the
                                    // re-executed read will hit.
                                    return;
                                }
                                let txn = self.next_txn();
                                self.nodes[p as usize].mshrs.insert(
                                    block,
                                    Mshr {
                                        kind: MshrKind::Read,
                                        issued_at: t,
                                        then_write: false,
                                        inval_pending: false,
                                        retry_pending: false,
                                        deferred_ctoc: None,
                                        txn,
                                    },
                                );
                                probe.read_issue(p, block, t, t_miss, txn);
                                self.send_request(p, block, MsgType::ReadRequest, t_miss, probe);
                                return;
                            }
                        },
                        RefKind::Write => match self.nodes[p as usize].hier.write(block) {
                            AccessOutcome::L1Hit { latency } | AccessOutcome::L2Hit { latency } => {
                                t += latency as Cycle;
                                let node = &mut self.nodes[p as usize];
                                node.pc += 1;
                                node.refs_executed += 1;
                            }
                            outcome => {
                                let t_miss = t + outcome.latency() as Cycle;
                                let node = &mut self.nodes[p as usize];
                                if let Some(m) = node.mshrs.get_mut(&block) {
                                    // Coalesce into the outstanding
                                    // transaction; a pending read upgrades
                                    // on fill.
                                    if m.kind == MshrKind::Read {
                                        m.then_write = true;
                                    }
                                    node.pc += 1;
                                    node.refs_executed += 1;
                                    t += 1;
                                } else if node.writes_inflight >= wb_cap {
                                    node.state = ProcState::WaitWriteBuffer;
                                    node.local_time = t;
                                    return;
                                } else {
                                    node.writes_inflight += 1;
                                    node.pc += 1;
                                    node.refs_executed += 1;
                                    let txn = self.next_txn();
                                    self.nodes[p as usize].mshrs.insert(
                                        block,
                                        Mshr {
                                            kind: MshrKind::Write,
                                            issued_at: t,
                                            then_write: false,
                                            inval_pending: false,
                                            retry_pending: false,
                                            deferred_ctoc: None,
                                            txn,
                                        },
                                    );
                                    self.send_request(
                                        p,
                                        block,
                                        MsgType::WriteRequest,
                                        t_miss,
                                        probe,
                                    );
                                    t += 1;
                                }
                            }
                        },
                    }
                }
            }
        }
    }

    fn barrier_arrive(&mut self, t: Cycle) {
        self.barrier.count += 1;
        self.barrier.max_time = self.barrier.max_time.max(t);
        if self.barrier.count == self.cfg.nodes {
            let release = self.barrier.max_time + 1;
            self.barrier = BarrierState::default();
            for q in 0..self.cfg.nodes {
                let node = &mut self.nodes[q];
                if matches!(node.state, ProcState::AtBarrier(_)) {
                    node.state = ProcState::Ready;
                    node.local_time = release;
                    self.queue.schedule_at(release, Ev::Proc(q as NodeId));
                }
            }
        }
    }

    fn on_retry<P: Probe>(&mut self, p: NodeId, block: BlockAddr, t: Cycle, probe: &mut P) {
        let node = &mut self.nodes[p as usize];
        let Some(m) = node.mshrs.get_mut(&block) else {
            return; // transaction completed before the retry fired
        };
        m.retry_pending = false;
        node.reads.retries += 1;
        let kind = match m.kind {
            MshrKind::Read => {
                probe.read_retry(p, block, t, m.txn);
                MsgType::ReadRequest
            }
            MshrKind::Write => MsgType::WriteRequest,
        };
        self.send_request(p, block, kind, t, probe);
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    fn flits(&self, msg: &Message) -> u32 {
        msg.flits(self.cfg.l2.line_bytes, self.cfg.switch.flit_bytes)
    }

    fn launch<P: Probe>(&mut self, msg: Message, route: Route, t: Cycle, probe: &mut P) {
        let slot = self.flights.insert(InFlight { msg, route, hop: 0 });
        self.launch_attempt(slot, t, 0, probe);
    }

    /// Launches (or retransmits) the message in `slot`. With fault
    /// injection active the link may drop it: the sender's interface
    /// retries after exponential backoff until [`FaultPlan::max_retries`],
    /// then the message is permanently lost (the watchdog's problem).
    fn launch_attempt<P: Probe>(&mut self, slot: u32, t: Cycle, attempt: u32, probe: &mut P) {
        if let Some(fs) = self.faults.as_mut() {
            let msg = &self.flights.get(slot).msg;
            match fs.on_launch(msg.id, msg.kind, attempt) {
                LaunchVerdict::Deliver => {}
                LaunchVerdict::DropRetry { backoff } => {
                    let relaunch = Ev::Relaunch { slot, attempt: attempt + 1 };
                    self.queue.schedule_at(t + backoff, relaunch);
                    return;
                }
                LaunchVerdict::Lost => {
                    let msg = self.flights.remove(slot);
                    self.lost_log.push(format!(
                        "{:?} msg {} for block {:#x} (attempt {attempt})",
                        msg.kind, msg.id, msg.block.0
                    ));
                    return;
                }
            }
        }
        let InFlight { msg, route, .. } = self.flights.get(slot);
        let flits = self.flits(msg);
        probe.msg_send(t, msg);
        let arrive = self.net.traverse_link(route.link(0), t, flits, msg.kind, probe);
        self.queue.schedule_at(arrive, Ev::Msg(slot));
    }

    fn send_request<P: Probe>(
        &mut self,
        p: NodeId,
        block: BlockAddr,
        kind: MsgType,
        t: Cycle,
        probe: &mut P,
    ) {
        // A newly issued (or re-issued) transaction is forward progress:
        // distinguishes a node computing locally from a livelocked one.
        if let Some(wd) = self.watchdog.as_mut() {
            wd.progress(t);
        }
        let home = self.map.home_of_block(block);
        let txn = self.txn_of(p, block);
        let msg =
            Message::new(self.next_id(), kind, block, Endpoint::Proc(p), Endpoint::Mem(home), p, t)
                .with_txn(txn);
        self.launch(msg, routes::forward(&self.bmin, p, home), t, probe);
    }

    fn send_from_proc<P: Probe>(&mut self, msg: Message, t: Cycle, probe: &mut P) {
        let src = match msg.src {
            Endpoint::Proc(p) => p,
            _ => unreachable!("send_from_proc with non-proc source"),
        };
        let route = match msg.dst {
            Endpoint::Mem(h) => routes::forward(&self.bmin, src, h),
            Endpoint::Proc(q) => match routes::proc_to_proc(&self.bmin, src, q, msg.block.0) {
                Ok(r) => r,
                Err(e) => {
                    self.sim_errors.push(e);
                    return;
                }
            },
            Endpoint::Switch { .. } => unreachable!("messages never target switches"),
        };
        self.launch(msg, route, t, probe);
    }

    fn send_from_mem<P: Probe>(&mut self, msg: Message, t: Cycle, probe: &mut P) {
        let src = match msg.src {
            Endpoint::Mem(h) => h,
            _ => unreachable!("send_from_mem with non-mem source"),
        };
        let dst = match msg.dst {
            Endpoint::Proc(p) => p,
            _ => unreachable!("memory only sends to processors"),
        };
        self.launch(msg, routes::backward(&self.bmin, src, dst), t, probe);
    }

    fn send_from_switch<P: Probe>(
        &mut self,
        sw: SwitchId,
        gen: GenMsg,
        orig: &Message,
        t: Cycle,
        probe: &mut P,
    ) {
        let (kind, to, owner) = match gen {
            GenMsg::CtoCRequest { owner, requester } => {
                (MsgType::CtoCRequest, owner, Some(requester))
            }
            GenMsg::Retry { to } => (MsgType::Retry, to, None),
            GenMsg::DataReply { to } => (MsgType::ReadReply, to, None),
        };
        let requester = match gen {
            GenMsg::CtoCRequest { requester, .. } => requester,
            GenMsg::Retry { to } | GenMsg::DataReply { to } => to,
        };
        let mut msg = Message::new(
            self.next_id(),
            kind,
            orig.block,
            Endpoint::Switch { stage: sw.stage, index: sw.index },
            Endpoint::Proc(to),
            requester,
            orig.issued_at,
        )
        .from_switch()
        .with_txn(orig.txn);
        if let (MsgType::CtoCRequest, Some(_)) = (kind, owner) {
            msg.owner = Some(to);
        }
        // Targets of CtoC requests and data replies are always down-
        // reachable (placement invariant); NAKs to foreign CtoC requesters
        // may need to ascend and turn around.
        let route = match routes::from_switch_to_proc_via(&self.bmin, sw, to, orig.block.0) {
            Ok(r) => r,
            Err(e) => {
                self.sim_errors.push(e);
                return;
            }
        };
        // Generation overlaps the switch's own pipeline: one core delay.
        let depart = t + self.net.core_delay();
        self.launch(msg, route, depart, probe);
    }

    fn switch_loc(&self, sw: SwitchId) -> SwitchLoc {
        let linear = sw.stage as usize * self.switches_per_stage + sw.index as usize;
        SwitchLoc { stage: sw.stage, index: sw.index, linear: linear as u16 }
    }

    /// The message in `slot` reached the next switch on its route, or its
    /// endpoint. It is snooped and forwarded in place.
    fn on_msg<P: Probe>(&mut self, slot: u32, t: Cycle, probe: &mut P) {
        let InFlight { route, hop, .. } = self.flights.get(slot);
        if *hop < route.switch_hops() {
            let sw = route.switch(*hop);
            let loc = self.switch_loc(sw);
            let msg = &mut self.flights.get_mut(slot).msg;
            probe.msg_hop(t, msg, loc);
            let action = match self.sdirs[usize::from(loc.linear)].as_mut() {
                Some(sd) => {
                    let action = sd.snoop(msg, loc, t, probe);
                    probe.sd_occupancy(t, loc, sd.occupancy(), sd.transient_count());
                    action
                }
                None => SnoopAction::Forward,
            };
            // A sunk ReadRequest reached its service point at this switch:
            // either an SD hit (CtoC generated) or an accumulated wait.
            if msg.kind == MsgType::ReadRequest
                && matches!(
                    action,
                    SnoopAction::Sink | SnoopAction::SinkSend(GenMsg::CtoCRequest { .. })
                )
            {
                let at = ServicePoint::Switch(loc);
                probe.read_service_arrive(msg.requester, msg.block, at, t, msg.txn);
            }
            match action {
                SnoopAction::Forward => self.forward_hop(slot, t, probe),
                SnoopAction::Sink => {
                    probe.msg_sink(t, msg, loc);
                    self.flights.remove(slot);
                }
                SnoopAction::SinkSend(gen) => {
                    probe.msg_sink(t, msg, loc);
                    let msg = self.flights.remove(slot);
                    self.send_from_switch(sw, gen, &msg, t, probe);
                }
                SnoopAction::ForwardSend(readers) => {
                    let msg = *msg;
                    for to in readers.iter() {
                        self.send_from_switch(sw, GenMsg::DataReply { to }, &msg, t, probe);
                    }
                    self.forward_hop(slot, t, probe);
                }
            }
        } else {
            // Endpoint delivery: the header arrived at `t`; data-bearing
            // messages complete after the tail.
            let msg = &self.flights.get(slot).msg;
            let t_full = t + self.net.tail_lag(self.flits(msg));
            probe.msg_deliver(t_full, msg);
            match msg.dst {
                Endpoint::Mem(h) => self.on_home_arrival(h, slot, t_full, probe),
                Endpoint::Proc(p) => {
                    let msg = self.flights.remove(slot);
                    self.on_proc_delivery(p, msg, t_full, probe);
                }
                Endpoint::Switch { .. } => unreachable!("messages never terminate at switches"),
            }
        }
    }

    /// Advances the message in `slot` one hop: it keeps its slot, only
    /// `hop` advances.
    fn forward_hop<P: Probe>(&mut self, slot: u32, t: Cycle, probe: &mut P) {
        let depart = t + self.net.core_delay();
        self.flights.get_mut(slot).hop += 1;
        let InFlight { msg, route, hop } = self.flights.get(slot);
        let flits = self.flits(msg);
        let arrive = self.net.traverse_link(route.link(*hop), depart, flits, msg.kind, probe);
        self.queue.schedule_at(arrive, Ev::Msg(slot));
    }

    // ------------------------------------------------------------------
    // Home node (memory + directory controller)
    // ------------------------------------------------------------------

    /// The message in `slot` arrived at home `h`. It keeps its slot until
    /// the controller and DRAM have processed it.
    fn on_home_arrival<P: Probe>(&mut self, h: NodeId, slot: u32, t: Cycle, probe: &mut P) {
        let msg = &self.flights.get(slot).msg;
        let occ = self.cfg.memory.controller_occupancy as Cycle;
        let start = self.home_ctrl[h as usize].acquire(t, occ);
        let done = match msg.kind {
            MsgType::InvalAck => start + occ,
            _ => {
                // Directory state lives in DRAM: every lookup/update pays
                // the access latency (the cost switch directories dodge).
                let dram = self.cfg.memory.access_cycles as Cycle;
                let dstart = self.dram[h as usize].acquire(msg.block.0, start + occ, dram);
                dstart + dram
            }
        };
        probe.home_service(h, msg.block, msg.kind, t, start, done);
        if msg.kind == MsgType::ReadRequest {
            probe.read_service_arrive(msg.requester, msg.block, ServicePoint::Home(h), t, msg.txn);
        }
        self.queue.schedule_at(done, Ev::HomeExec { home: h, slot });
    }

    fn on_home_exec<P: Probe>(&mut self, h: NodeId, slot: u32, t: Cycle, probe: &mut P) {
        let msg = self.flights.remove(slot);
        let sender = || match msg.src {
            Endpoint::Proc(p) => p,
            _ => unreachable!("completions originate at caches"),
        };
        let req = match msg.kind {
            MsgType::ReadRequest => Request::Read { requester: msg.requester },
            MsgType::WriteRequest => Request::Write { requester: msg.requester },
            MsgType::InvalAck => Request::InvalAck,
            // A copyback whose `owner` field is set announces that the
            // supplier retained the line OWNED (MOESI dirty sharing).
            MsgType::CopyBack => Request::CopyBack {
                from: sender(),
                carried: msg.carried_sharers,
                retained: msg.owner.is_some(),
            },
            MsgType::WriteBack => {
                Request::WriteBack { from: sender(), carried: msg.carried_sharers }
            }
            other => unreachable!("home received unexpected {other:?}"),
        };
        self.home_step(h, msg.block, req, t, probe);
    }

    /// Hands one request to home `h`'s directory, reports the FSM
    /// transition it made, performs its action and then handles each
    /// request it unblocked, in queue order, the same way.
    fn home_step<P: Probe>(
        &mut self,
        h: NodeId,
        block: BlockAddr,
        req: Request,
        t: Cycle,
        probe: &mut P,
    ) {
        let out = self.homes[h as usize].handle(block, req);
        let ((from, from_busy), (to, to_busy)) = (out.from, out.to);
        let nak = matches!(out.action, Some(DirAction::Nak { .. }));
        let queued = matches!(out.action, Some(DirAction::Queued));
        probe.home_fsm(
            t,
            h,
            block,
            HomeTransition { req: req.kind(), from, from_busy, to, to_busy, nak, queued },
        );
        if let Some(act) = out.action {
            self.apply_dir_action(h, block, act, t, probe);
        }
        for req in out.replay {
            self.home_step(h, block, req, t, probe);
        }
    }

    /// A message from memory `h` to processor `to` about `block`.
    fn mem_msg(
        &mut self,
        kind: MsgType,
        h: NodeId,
        block: BlockAddr,
        to: NodeId,
        requester: NodeId,
        t: Cycle,
    ) -> Message {
        Message::new(
            self.next_id(),
            kind,
            block,
            Endpoint::Mem(h),
            Endpoint::Proc(to),
            requester,
            t,
        )
    }

    fn apply_dir_action<P: Probe>(
        &mut self,
        h: NodeId,
        block: BlockAddr,
        act: DirAction,
        t: Cycle,
        probe: &mut P,
    ) {
        let msg = match act {
            DirAction::ReadReplyClean { to } => {
                let txn = self.txn_of(to, block);
                probe.read_service_done(to, block, t, txn);
                self.mem_msg(MsgType::ReadReply, h, block, to, to, t).with_txn(txn)
            }
            DirAction::ReadReplyExcl { to, seq } => {
                // MESI/MOESI unshared fill: a ReadReply whose `owner` field
                // names the requester is the EXCLUSIVE grant (under MSI the
                // field is always absent on read replies), and `owner_seq`
                // carries the booked ownership instance.
                let txn = self.txn_of(to, block);
                probe.read_service_done(to, block, t, txn);
                self.mem_msg(MsgType::ReadReply, h, block, to, to, t)
                    .with_owner(to)
                    .with_owner_seq(seq)
                    .with_txn(txn)
            }
            DirAction::WriteReplyGrant { to, seq } => self
                .mem_msg(MsgType::WriteReply, h, block, to, to, t)
                .with_owner_seq(seq)
                .with_txn(self.txn_of(to, block)),
            DirAction::ForwardCtoC { owner, requester, write_intent, owner_seq } => {
                let msg = self
                    .mem_msg(MsgType::CtoCRequest, h, block, owner, requester, t)
                    .with_owner(owner)
                    .with_owner_seq(owner_seq)
                    .with_txn(self.txn_of(requester, block));
                if write_intent {
                    msg.with_write_intent()
                } else {
                    msg
                }
            }
            DirAction::Invalidate { targets, writer } => {
                // Invalidations serve the writer's transaction: they fan
                // out of it and their acks converge back into it.
                let txn = self.txn_of(writer, block);
                for target in targets.iter() {
                    let msg = self
                        .mem_msg(MsgType::Invalidate, h, block, target, target, t)
                        .with_txn(txn);
                    self.send_from_mem(msg, t, probe);
                }
                return;
            }
            DirAction::Nak { to } => {
                self.mem_msg(MsgType::Retry, h, block, to, to, t).with_txn(self.txn_of(to, block))
            }
            DirAction::Queued => return,
        };
        self.send_from_mem(msg, t, probe);
    }

    // ------------------------------------------------------------------
    // Processor-side message handling (cache controller)
    // ------------------------------------------------------------------

    fn on_proc_delivery<P: Probe>(&mut self, p: NodeId, msg: Message, t: Cycle, probe: &mut P) {
        match msg.kind {
            MsgType::ReadReply => {
                // An `owner` field on a ReadReply is the MESI/MOESI
                // EXCLUSIVE grant (never set on MSI read replies).
                let state =
                    if msg.owner.is_some() { LineState::Exclusive } else { LineState::Shared };
                self.complete_fill(p, &msg, state, self.classify_read(&msg), t, probe)
            }
            MsgType::CtoCData => {
                if msg.write_intent {
                    self.complete_fill(p, &msg, LineState::Modified, None, t, probe);
                } else {
                    self.complete_fill(
                        p,
                        &msg,
                        LineState::Shared,
                        self.classify_read(&msg),
                        t,
                        probe,
                    );
                }
            }
            MsgType::WriteReply => {
                self.complete_fill(p, &msg, LineState::Modified, None, t, probe);
            }
            MsgType::CtoCRequest => self.on_intervention(p, msg, t, probe),
            MsgType::Invalidate => self.on_invalidate(p, msg, t, probe),
            MsgType::Retry => self.on_nak(p, msg, t, probe),
            other => unreachable!("processor received unexpected {other:?}"),
        }
    }

    fn classify_read(&self, msg: &Message) -> Option<ReadClass> {
        Some(match msg.kind {
            MsgType::ReadReply if msg.switch_generated => ReadClass::DirtyCtoCSwitch,
            MsgType::ReadReply => ReadClass::CleanMemory,
            MsgType::CtoCData if msg.switch_generated => ReadClass::DirtyCtoCSwitch,
            MsgType::CtoCData => ReadClass::DirtyCtoCHome,
            _ => return None,
        })
    }

    /// Installs arriving data and completes the block's MSHR.
    fn complete_fill<P: Probe>(
        &mut self,
        p: NodeId,
        msg: &Message,
        state: LineState,
        class: Option<ReadClass>,
        t: Cycle,
        probe: &mut P,
    ) {
        let block = msg.block;
        if let Some(wd) = self.watchdog.as_mut() {
            wd.progress(t);
        }
        // Ownership-bearing fills: MODIFIED grants and EXCLUSIVE grants both
        // record the home-booked instance (the home cannot tell them apart).
        let owning = matches!(state, LineState::Modified | LineState::Exclusive);
        let Some(m) = self.nodes[p as usize].mshrs.remove(&block) else {
            // Duplicate reply with no transaction waiting (NAK'd then served
            // twice, or delayed by fault retransmission). An ownership grant
            // must still install: the home has recorded this node as owner
            // and will direct the next intervention here. A duplicate Shared
            // fill is dropped — installing one that was delayed past a later
            // Invalidate would resurrect a line the home no longer tracks.
            if owning {
                self.nodes[p as usize].owner_seq.insert(block, msg.owner_seq);
                self.fill(p, block, state, t, probe);
            }
            return;
        };
        if owning {
            self.nodes[p as usize].owner_seq.insert(block, msg.owner_seq);
        }
        self.fill(p, block, state, t, probe);

        let node = &mut self.nodes[p as usize];
        match m.kind {
            MshrKind::Read => {
                if let Some(class) = class {
                    let latency = t.saturating_sub(m.issued_at);
                    node.reads.record(class, latency);
                    probe.read_complete(p, block, class, latency, t, m.txn);
                }
                if m.then_write && state == LineState::Exclusive {
                    // The coalesced write completes locally: an EXCLUSIVE
                    // holder upgrades silently. It must NOT send a
                    // WriteRequest — the home books E as ownership and NAKs
                    // owner-requests forever (livelock).
                    self.nodes[p as usize].hier.write(block);
                    if m.inval_pending {
                        self.nodes[p as usize].hier.invalidate(block);
                    }
                } else if m.then_write {
                    // A write coalesced behind this read: upgrade now.
                    let node = &mut self.nodes[p as usize];
                    node.writes_inflight += 1;
                    node.mshrs.insert(
                        block,
                        Mshr {
                            kind: MshrKind::Write,
                            issued_at: t,
                            then_write: false,
                            inval_pending: m.inval_pending,
                            retry_pending: false,
                            deferred_ctoc: None,
                            // The upgrade continues the read's transaction:
                            // one miss, one causal tree.
                            txn: m.txn,
                        },
                    );
                    self.send_request(p, block, MsgType::WriteRequest, t, probe);
                } else if m.inval_pending {
                    // Fill-then-invalidate: the blocked read consumes the
                    // data once (below), then the line dies.
                    self.nodes[p as usize].hier.invalidate(block);
                }
            }
            MshrKind::Write => {
                let node = &mut self.nodes[p as usize];
                debug_assert!(node.writes_inflight > 0);
                node.writes_inflight -= 1;
                match node.state {
                    ProcState::WaitWriteBuffer => {
                        node.state = ProcState::Ready;
                        self.queue.schedule_at(t, Ev::Proc(p));
                    }
                    ProcState::DrainForBarrier(id) if node.writes_inflight == 0 => {
                        node.state = ProcState::AtBarrier(id);
                        node.local_time = node.local_time.max(t);
                        let at = node.local_time;
                        self.barrier_arrive(at);
                    }
                    _ => {}
                }
            }
        }
        // Resume a processor blocked on this block.
        let node = &mut self.nodes[p as usize];
        if node.state == ProcState::WaitRead(block) {
            if m.inval_pending && m.kind == MshrKind::Read {
                // Let the pending read hit before the invalidation bites:
                // model the single use by re-filling Shared for one access.
                // (The line was invalidated above; a refill would be
                // incorrect — instead account the hit by advancing past the
                // read here.)
                node.pc += 1;
                node.refs_executed += 1;
            }
            node.reads.stall_cycles += t.saturating_sub(node.stall_since);
            node.state = ProcState::Ready;
            node.local_time = node.local_time.max(t);
            self.queue.schedule_at(t, Ev::Proc(p));
        }
        if let Some(d) = m.deferred_ctoc {
            debug_assert_eq!(m.kind, MshrKind::Write);
            let t_cache = t + self.cfg.l2.access_cycles as Cycle;
            if d.owner_seq == msg.owner_seq {
                // The intervention overtook this very grant in flight; the
                // home is still busy waiting for our copyback. Serve it now
                // that the line is installed (the granted write retired
                // above).
                self.serve_intervention(p, block, d, t_cache, probe);
            } else {
                // The deferred intervention targeted a different ownership
                // instance: the home cancelled that transaction while the
                // (retransmitted) intervention was in flight. NAK it.
                self.nak_intervention(p, block, &d, t_cache, probe);
            }
        }
    }

    /// Installs `block` in `p`'s hierarchy and sends the writeback the fill
    /// may owe for a displaced L2 victim.
    fn fill<P: Probe>(
        &mut self,
        p: NodeId,
        block: BlockAddr,
        state: LineState,
        t: Cycle,
        probe: &mut P,
    ) {
        let Some(victim) = self.nodes[p as usize].hier.fill(block, state) else {
            return;
        };
        self.writebacks += 1;
        let home = self.map.home_of_block(victim);
        let msg = Message::new(
            self.next_id(),
            MsgType::WriteBack,
            victim,
            Endpoint::Proc(p),
            Endpoint::Mem(home),
            p,
            t,
        );
        self.send_from_proc(msg, t, probe);
    }

    /// A CtoC intervention arrives at (what the sender believes is) the
    /// owner cache.
    fn on_intervention<P: Probe>(&mut self, p: NodeId, msg: Message, t: Cycle, probe: &mut P) {
        let block = msg.block;
        let t_cache = t + self.cfg.l2.access_cycles as Cycle;
        let holds_dirty = self.nodes[p as usize]
            .hier
            .probe(block)
            .is_some_and(|s| serves_intervention(self.cfg.protocol, s));
        let d = DeferredIntervention {
            requester: msg.requester,
            write_intent: msg.write_intent,
            switch_generated: msg.switch_generated,
            issued_at: msg.issued_at,
            owner_seq: msg.owner_seq,
            txn: msg.txn,
        };
        if holds_dirty {
            // Home-generated interventions name the ownership instance they
            // target; serve only if that is the instance this cache holds.
            // A mismatch means the home cancelled the transaction after the
            // (retransmitted) intervention departed — serving it would
            // transfer ownership behind the home's back. Switch-generated
            // interventions carry no sequence (seq 0): they are read-intent
            // only and any dirty holder can safely service them.
            let held = self.nodes[p as usize].owner_seq.get(&block).copied().unwrap_or(0);
            if d.switch_generated || d.owner_seq == held {
                self.serve_intervention(p, block, d, t_cache, probe);
            } else {
                self.nak_intervention(p, block, &d, t_cache, probe);
            }
            return;
        }
        if !d.switch_generated {
            if let Some(m) = self.nodes[p as usize].mshrs.get_mut(&block) {
                if m.kind == MshrKind::Write && m.deferred_ctoc.is_none() {
                    // The intervention overtook this node's own ownership
                    // grant (retransmission reorders the home's WriteReply
                    // past the intervention it sends for the next writer).
                    // The home is busy until our copyback arrives and the
                    // requester's retries will park behind it, so a NAK
                    // would wedge the block forever: serve the intervention
                    // when the fill lands — if it still names the instance
                    // the fill installs.
                    m.deferred_ctoc = Some(d);
                    return;
                }
            }
        }
        // Race: the block left this cache (eviction writeback or a
        // concurrent transfer). NAK the requester; home-side completion
        // is handled by the writeback/copyback already in flight.
        self.nak_intervention(p, block, &d, t_cache, probe);
    }

    /// Rejects a CtoC intervention: tells the requester to retry. Harmless
    /// even when the requester's transaction has already been resolved some
    /// other way (the NAK finds no MSHR and is dropped).
    fn nak_intervention<P: Probe>(
        &mut self,
        p: NodeId,
        block: BlockAddr,
        d: &DeferredIntervention,
        t_cache: Cycle,
        probe: &mut P,
    ) {
        let mut nak = Message::new(
            self.next_id(),
            MsgType::Retry,
            block,
            Endpoint::Proc(p),
            Endpoint::Proc(d.requester),
            d.requester,
            d.issued_at,
        )
        .with_txn(d.txn);
        nak.switch_generated = d.switch_generated;
        self.send_from_proc(nak, t_cache, probe);
    }

    /// Serves a CtoC intervention at owner `p`, which holds the block
    /// dirty: downgrade or relinquish the line, send the data straight to
    /// the requester and the copyback toward the home.
    fn serve_intervention<P: Probe>(
        &mut self,
        p: NodeId,
        block: BlockAddr,
        d: DeferredIntervention,
        t_cache: Cycle,
        probe: &mut P,
    ) {
        // MOESI owner-supplies rule: a dirty holder answering a read keeps
        // the line OWNED and stays the supplier; everyone else downgrades
        // to Shared. E holders (MESI/MOESI) serve clean and downgrade.
        let retains = !d.write_intent
            && self.cfg.protocol.owner_retains_on_read()
            && matches!(
                self.nodes[p as usize].hier.probe(block),
                Some(LineState::Modified | LineState::Owned)
            );
        if d.write_intent {
            self.nodes[p as usize].hier.invalidate(block);
        } else {
            if retains {
                self.nodes[p as usize].hier.downgrade_to(block, LineState::Owned);
            } else {
                self.nodes[p as usize].hier.downgrade(block);
            }
            // The owner cache is the service point of a read CtoC: the
            // data departs toward the requester now.
            probe.read_service_done(d.requester, block, t_cache, d.txn);
        }
        // Data straight to the requester...
        let mut data = Message::new(
            self.next_id(),
            MsgType::CtoCData,
            block,
            Endpoint::Proc(p),
            Endpoint::Proc(d.requester),
            d.requester,
            d.issued_at,
        )
        .with_txn(d.txn);
        data.switch_generated = d.switch_generated;
        if d.write_intent {
            // Ownership grant: the home will bump its sequence to exactly
            // this value when the copyback below lands (its sequence is
            // frozen at `d.owner_seq` while the transaction is busy).
            data = data.with_write_intent().with_owner_seq(d.owner_seq + 1);
        }
        self.send_from_proc(data, t_cache, probe);
        // ...and the copyback toward the home to update memory (and be
        // marked by any TRANSIENT switch entries on the way).
        let home = self.map.home_of_block(block);
        let mut cb = Message::new(
            self.next_id(),
            MsgType::CopyBack,
            block,
            Endpoint::Proc(p),
            Endpoint::Mem(home),
            d.requester,
            d.issued_at,
        )
        .with_txn(d.txn);
        cb.switch_generated = d.switch_generated;
        if d.write_intent {
            cb = cb.with_write_intent();
        }
        if retains {
            // Mark the copyback "retained": the home books this cache as
            // the OWNED supplier instead of a mere sharer.
            cb = cb.with_owner(p);
        }
        self.send_from_proc(cb, t_cache, probe);
    }

    fn on_invalidate<P: Probe>(&mut self, p: NodeId, msg: Message, t: Cycle, probe: &mut P) {
        let block = msg.block;
        {
            let node = &mut self.nodes[p as usize];
            if let Some(m) = node.mshrs.get_mut(&block) {
                if m.kind == MshrKind::Read {
                    // Data is in flight: use-once then invalidate.
                    m.inval_pending = true;
                }
            } else {
                node.hier.invalidate(block);
            }
        }
        let home = self.map.home_of_block(block);
        let ack = Message::new(
            self.next_id(),
            MsgType::InvalAck,
            block,
            Endpoint::Proc(p),
            Endpoint::Mem(home),
            p,
            t,
        )
        .with_txn(msg.txn);
        self.send_from_proc(ack, t + 1, probe);
    }

    fn on_nak<P: Probe>(&mut self, p: NodeId, msg: Message, t: Cycle, probe: &mut P) {
        let backoff = self.cfg.processor.retry_backoff_cycles as Cycle;
        let node = &mut self.nodes[p as usize];
        probe.nak_received(t, p, msg.block);
        if let Some(m) = node.mshrs.get_mut(&msg.block) {
            if !m.retry_pending {
                m.retry_pending = true;
                self.queue.schedule_at(t + backoff, Ev::Retry { node: p, block: msg.block });
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection for tests
    // ------------------------------------------------------------------

    /// The address map in use.
    pub fn address_map(&self) -> AddressMap {
        self.map
    }
}

/// Attaches what the observers produced to `report`. The flight recorder
/// is a black box: it records always, but its dump surfaces only when the
/// run is anomalous (watchdog trip, failed audit, lost messages or sim
/// errors), so healthy reports stay byte-identical with or without it.
fn attach_observations(mut report: ExecutionReport, mut obs: ObsReport) -> ExecutionReport {
    let anomalous = report.watchdog.is_some()
        || report.coherence.as_ref().is_some_and(|c| !c.ok())
        || report.faults.is_some_and(|f| f.lost > 0)
        || !report.sim_errors.is_empty();
    if !anomalous {
        obs.flight = None;
    }
    if !obs.is_empty() {
        report.obs = Some(obs);
    }
    report
}

/// Whether a holder in `state` serves a forwarded intervention rather than
/// NAKing it: M always; E under MESI/MOESI; O under MOESI; S never.
fn serves_intervention(protocol: Protocol, state: LineState) -> bool {
    match state {
        LineState::Modified => true,
        LineState::Exclusive => protocol.exclusive_read_fill(),
        LineState::Owned => protocol.owner_retains_on_read(),
        LineState::Shared => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::config::{SwitchDirConfig, TransientReadPolicy};
    use dresar_types::{StreamItem, ToJson};

    fn small_cfg(switch_dir: bool) -> SystemConfig {
        let mut cfg = SystemConfig::paper_table2();
        cfg.nodes = 4;
        cfg.switch.radix = 2;
        cfg.switch_dir = switch_dir.then(SwitchDirConfig::paper_default);
        cfg
    }

    fn wl(streams: Vec<Vec<StreamItem>>) -> Workload {
        Workload { name: "test".into(), streams }
    }

    fn run(cfg: SystemConfig, w: &Workload) -> ExecutionReport {
        System::new(cfg, w).run(RunOptions { max_cycles: 10_000_000, ..Default::default() })
    }

    #[test]
    fn intervention_suppliers_per_protocol() {
        use LineState::{Exclusive as E, Modified as M, Owned as O, Shared as S};
        // Which holder states serve an intervention, per protocol, in the
        // order S, E, O, M.
        let table = [
            (Protocol::Msi, [false, false, false, true]),
            (Protocol::Mesi, [false, true, false, true]),
            (Protocol::Moesi, [false, true, true, true]),
            (Protocol::Dls, [false, false, false, true]),
        ];
        for (p, serves) in table {
            for (state, want) in [S, E, O, M].into_iter().zip(serves) {
                assert_eq!(serves_intervention(p, state), want, "{p} {state:?}");
            }
        }
    }

    #[test]
    fn single_read_is_clean_from_memory() {
        let w = wl(vec![vec![StreamItem::read(0, 4)]]);
        let r = run(small_cfg(false), &w);
        assert_eq!(r.reads.clean, 1);
        assert_eq!(r.reads.dirty(), 0);
        assert!(r.cycles > 0);
        assert_eq!(r.refs_executed, 1);
    }

    #[test]
    fn cached_reads_do_not_go_to_memory() {
        let w =
            wl(vec![vec![StreamItem::read(0, 1), StreamItem::read(0, 1), StreamItem::read(4, 1)]]);
        let r = run(small_cfg(false), &w);
        // Blocks 0 and 4 share a 32-byte line? addr 4 is in block 0: one miss.
        assert_eq!(r.reads.total(), 1);
        assert_eq!(r.refs_executed, 3);
    }

    #[test]
    fn write_then_remote_read_is_home_ctoc_without_switch_dir() {
        let w = wl(vec![
            vec![StreamItem::write(0, 1), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(0, 1)],
            vec![StreamItem::barrier(0)],
            vec![StreamItem::barrier(0)],
        ]);
        let r = run(small_cfg(false), &w);
        assert_eq!(r.reads.ctoc_home, 1, "dirty read must be a home-forwarded CtoC");
        assert_eq!(r.reads.ctoc_switch, 0);
        assert_eq!(r.dir.reads_ctoc, 1);
    }

    #[test]
    fn switch_directory_serves_remote_read() {
        let w = wl(vec![
            vec![StreamItem::write(0, 1), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(0, 1)],
            vec![StreamItem::barrier(0)],
            vec![StreamItem::barrier(0)],
        ]);
        let r = run(small_cfg(true), &w);
        assert_eq!(r.reads.ctoc_switch, 1, "switch directory must intercept the read");
        assert_eq!(r.reads.ctoc_home, 0);
        assert_eq!(r.dir.reads_ctoc, 0, "the read never reached the home");
        assert!(r.sd.read_hits >= 1);
        assert!(r.sd.copybacks_marked >= 1, "the copyback must carry the new sharer");
    }

    #[test]
    fn switch_dir_keeps_home_directory_exact() {
        // After a switch-served read, a third processor writing the block
        // must trigger invalidations covering *both* the owner and the
        // switch-served reader — proof the marked copyback reached the home.
        let w = wl(vec![
            vec![StreamItem::write(0, 1), StreamItem::barrier(0), StreamItem::barrier(1)],
            vec![StreamItem::barrier(0), StreamItem::read(0, 1), StreamItem::barrier(1)],
            vec![StreamItem::barrier(0), StreamItem::barrier(1), StreamItem::write(0, 1)],
            vec![StreamItem::barrier(0), StreamItem::barrier(1)],
        ]);
        let r = run(small_cfg(true), &w);
        assert_eq!(r.reads.ctoc_switch, 1);
        assert!(r.dir.marked_completions >= 1, "home must see the marked copyback");
        assert!(
            r.dir.invals_sent >= 2,
            "writer must invalidate owner and switch-served sharer, got {}",
            r.dir.invals_sent
        );
    }

    #[test]
    fn write_after_remote_write_transfers_ownership() {
        let w = wl(vec![
            vec![StreamItem::write(0, 1), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::write(0, 1)],
            vec![StreamItem::barrier(0)],
            vec![StreamItem::barrier(0)],
        ]);
        let r = run(small_cfg(false), &w);
        assert_eq!(r.dir.writes_ctoc, 1, "second write must trigger an ownership transfer");
    }

    #[test]
    fn shared_then_write_invalidates_sharers() {
        let w = wl(vec![
            vec![StreamItem::read(0, 1), StreamItem::barrier(0)],
            vec![StreamItem::read(0, 1), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::write(0, 1)],
            vec![StreamItem::barrier(0)],
        ]);
        let r = run(small_cfg(false), &w);
        assert!(r.dir.inval_rounds >= 1);
        assert!(r.dir.invals_sent >= 2);
    }

    #[test]
    fn capacity_evictions_produce_writebacks() {
        // Write more distinct blocks than L2 can hold.
        let cfg = small_cfg(false);
        let lines = cfg.l2.lines();
        let stream: Vec<StreamItem> =
            (0..lines + 64).map(|i| StreamItem::write(i * 32, 1)).collect();
        let r = run(cfg, &wl(vec![stream]));
        assert!(r.writebacks > 0, "dirty evictions must write back");
    }

    #[test]
    fn reports_are_deterministic() {
        let w = wl(vec![
            vec![StreamItem::write(0, 1), StreamItem::read(4096, 2), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(0, 1)],
            vec![StreamItem::write(8192, 3), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(8192, 1)],
        ]);
        let r1 = run(small_cfg(true), &w);
        let r2 = run(small_cfg(true), &w);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.reads, r2.reads);
        assert_eq!(r1.network_hops, r2.network_hops);
        assert_eq!(r1.metrics, r2.metrics, "metrics registries must match exactly");
        assert_eq!(
            r1.metrics.to_json().dump(),
            r2.metrics.to_json().dump(),
            "metrics serialization must be byte-identical"
        );
    }

    #[test]
    fn metrics_registry_is_populated() {
        let w = wl(vec![
            vec![StreamItem::write(0, 1), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(0, 1)],
            vec![StreamItem::barrier(0)],
            vec![StreamItem::barrier(0)],
        ]);
        let r = run(small_cfg(true), &w);
        use dresar_obs::MetricValue;
        assert_eq!(r.metrics.get("proc.refs_executed"), Some(&MetricValue::Counter(2)));
        assert_eq!(r.metrics.get("net.messages"), Some(&MetricValue::Counter(r.network_hops)));
        assert_eq!(r.metrics.get("reads.ctoc_switch"), Some(&MetricValue::Counter(1)));
        assert_eq!(r.metrics.get("sd.read_hits"), Some(&MetricValue::Counter(r.sd.read_hits)));
        assert_eq!(r.metrics.get("home.lookups"), Some(&MetricValue::Counter(r.dir.lookups)));
        // The queue drained, so the gauge's current level is zero but its
        // peak saw the run.
        match r.metrics.get("engine.queue.depth") {
            Some(MetricValue::Gauge { current: 0, peak }) if *peak > 0 => {}
            other => panic!("unexpected engine.queue.depth: {other:?}"),
        }
        // Structural invariant: TRANSIENT entries are pinned, so replacement
        // never victimizes one.
        assert_eq!(r.metrics.get("sd.evictions_transient"), Some(&MetricValue::Counter(0)));
        // No switch directories -> no sd.* metrics at all.
        let base = run(small_cfg(false), &w);
        assert_eq!(base.metrics.get("sd.read_hits"), None);
    }

    #[test]
    fn switch_dir_reduces_read_latency() {
        // A producer writes many blocks; consumers read them. With switch
        // directories the dirty reads shortcut the home.
        let blocks: Vec<u64> = (0..32).map(|i| i * 32).collect();
        let producer: Vec<StreamItem> = blocks
            .iter()
            .map(|&b| StreamItem::write(b, 2))
            .chain([StreamItem::barrier(0)])
            .collect();
        let consumer: Vec<StreamItem> = [StreamItem::barrier(0)]
            .into_iter()
            .chain(blocks.iter().map(|&b| StreamItem::read(b, 2)))
            .collect();
        let w = wl(vec![
            producer,
            consumer,
            vec![StreamItem::barrier(0)],
            vec![StreamItem::barrier(0)],
        ]);
        let base = run(small_cfg(false), &w);
        let with = run(small_cfg(true), &w);
        assert!(with.reads.ctoc_switch > 0);
        assert!(
            with.avg_read_latency() < base.avg_read_latency(),
            "switch dir {} must beat base {}",
            with.avg_read_latency(),
            base.avg_read_latency()
        );
        assert!(with.home_ctoc() < base.home_ctoc());
    }

    #[test]
    fn paper_table2_sixteen_nodes_run() {
        // Smoke test at the paper's full 16-node scale.
        let mut streams = Vec::new();
        for p in 0..16u64 {
            streams.push(vec![
                StreamItem::write(p * 32, 1),
                StreamItem::barrier(0),
                StreamItem::read(((p + 1) % 16) * 32, 1),
            ]);
        }
        let r = run(SystemConfig::paper_table2(), &wl(streams));
        assert_eq!(r.refs_executed, 32);
        assert!(r.reads.dirty() > 0);
    }

    #[test]
    fn directory_errors_surface_as_sim_errors() {
        // An out-of-range requester id must become a structured sim error
        // in the report — in release builds too (no debug_assert involved)
        // — and must not wrap into any sharer vector.
        let w = wl(vec![vec![], vec![], vec![], vec![]]);
        let mut sys = System::new(small_cfg(false), &w);
        sys.homes[0].handle(BlockAddr(0), Request::Read { requester: 200 });
        assert_eq!(sys.homes[0].state(BlockAddr(0)), dresar_directory::DirState::Uncached);
        let r = sys.run(RunOptions { max_cycles: 10_000_000, ..Default::default() });
        assert!(
            r.sim_errors.iter().any(|e| e.contains("dir_read_bounds") && e.contains("200")),
            "expected a dir_read_bounds protocol error, got {:?}",
            r.sim_errors
        );
    }

    #[test]
    fn scaled_64_node_machine_runs_coherently() {
        // Past the old 64-node SharerSet ceiling's edge: all 64 nodes read
        // one block (sharer bit 63 in use), then a writer invalidates all.
        let cfg = SystemConfig::scaled(64, 4);
        let mut streams: Vec<Vec<StreamItem>> =
            (0..64).map(|_| vec![StreamItem::read(0, 1), StreamItem::barrier(0)]).collect();
        streams[0].push(StreamItem::write(0, 1));
        let r = System::new(cfg, &wl(streams)).run(RunOptions {
            max_cycles: 10_000_000,
            verify_coherence: true,
            ..Default::default()
        });
        assert!(r.sim_errors.is_empty(), "sim errors: {:?}", r.sim_errors);
        let c = r.coherence.expect("coherence audit requested");
        assert!(c.ok(), "violations: {:?}", c.violations);
        assert_eq!(r.refs_executed, 65);
        assert!(r.dir.invals_sent >= 63, "writer must invalidate the other 63 sharers");
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn livelock_guard_fires() {
        let w = wl(vec![vec![StreamItem::read(0, 1)]]);
        System::new(small_cfg(false), &w).run(RunOptions {
            max_cycles: 1, // absurdly small bound
            ..Default::default()
        });
    }

    /// Sixteen nodes sharing 24 blocks: enough traffic for a lossy plan
    /// to drop, retransmit and lose messages.
    fn sharing_workload() -> Workload {
        let streams = (0..16u64)
            .map(|p| {
                (0..40u64)
                    .flat_map(|i| {
                        let addr = ((p + i) % 24) * 32;
                        let r = if i % 3 == 0 {
                            StreamItem::write(addr, 2)
                        } else {
                            StreamItem::read(addr, 2)
                        };
                        let barrier = (i % 10 == 9).then(|| StreamItem::barrier((i / 10) as u32));
                        std::iter::once(r).chain(barrier)
                    })
                    .collect()
            })
            .collect();
        wl(streams)
    }

    #[test]
    fn every_message_slot_is_free_when_the_queue_drains() {
        // `run_probed` debug-asserts that a drained queue leaves no
        // message slot held. These runs drain it after clean runs, whose
        // switch directories sink reads under both transient policies,
        // and after drops, retransmissions and permanent losses.
        let mut cfg = SystemConfig::paper_table2();
        cfg.switch_dir = Some(SwitchDirConfig::paper_default());
        let w = sharing_workload();
        for transient_policy in [TransientReadPolicy::Retry, TransientReadPolicy::Accumulate] {
            let sd = SwitchDirConfig { transient_policy, ..SwitchDirConfig::paper_default() };
            let cfg = SystemConfig { switch_dir: Some(sd), ..cfg };
            let clean = System::new(cfg, &w).run(RunOptions::default());
            assert_eq!(clean.refs_executed, w.total_refs() as u64);
            let sunk = clean.sd.transient_retries + clean.sd.readers_accumulated;
            assert!(sunk > 0, "{transient_policy:?}: no read was sunk");
        }
        let plan =
            FaultPlan { seed: 11, drop_ppm: 100_000, max_retries: 1, ..FaultPlan::default() };
        let lossy = System::new(cfg, &w).run(RunOptions {
            faults: Some(plan),
            watchdog: Some(WatchdogConfig::default()),
            ..RunOptions::default()
        });
        let stats = lossy.faults.expect("plan active");
        assert!(stats.retransmissions > 0 && stats.lost > 0, "{stats:?}");
        let verdict = lossy.watchdog.map(|wd| wd.kind);
        assert_eq!(verdict, Some(WatchdogKind::QuiescenceFailure), "the queue must drain");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "message slot(s) held")]
    fn a_forgotten_message_fails_the_drain_check() {
        let w = wl(vec![vec![StreamItem::read(0, 1)]]);
        let mut sys = System::new(small_cfg(false), &w);
        let (src, dst) = (Endpoint::Proc(0), Endpoint::Mem(1));
        let msg = Message::new(1, MsgType::ReadRequest, BlockAddr(0), src, dst, 0, 0);
        let route = routes::forward(&sys.bmin, 0, 1);
        sys.flights.insert(InFlight { msg, route, hop: 0 });
        sys.run(RunOptions { max_cycles: 10_000_000, ..Default::default() });
    }

    use dresar_types::Protocol;

    fn proto_cfg(p: Protocol, switch_dir: bool) -> SystemConfig {
        let mut cfg = small_cfg(switch_dir);
        cfg.protocol = p;
        cfg
    }

    fn run_verified(cfg: SystemConfig, w: &Workload) -> ExecutionReport {
        let r = System::new(cfg, w).run(RunOptions {
            max_cycles: 10_000_000,
            verify_coherence: true,
            ..Default::default()
        });
        assert!(r.sim_errors.is_empty(), "sim errors: {:?}", r.sim_errors);
        let c = r.coherence.as_ref().expect("coherence audit requested");
        assert!(c.ok(), "violations: {:?}", c.violations);
        r
    }

    #[test]
    fn mesi_read_then_write_upgrades_silently() {
        // One processor reads a private block then writes it. MESI grants
        // EXCLUSIVE on the unshared fill, so the write completes locally:
        // the home sees exactly one lookup (the read) and no write traffic.
        let w =
            wl(vec![vec![StreamItem::read(0, 1), StreamItem::write(0, 1)], vec![], vec![], vec![]]);
        let mesi = run_verified(proto_cfg(Protocol::Mesi, false), &w);
        assert_eq!(mesi.dir.lookups, 1, "the silent upgrade must not reach the home");
        assert_eq!(mesi.dir.reads_clean, 1);
        // MSI needs the explicit upgrade transaction.
        let msi = run_verified(proto_cfg(Protocol::Msi, false), &w);
        assert_eq!(msi.dir.lookups, 2);
    }

    #[test]
    fn mesi_exclusive_holder_serves_remote_read_clean() {
        // p0 read-fills EXCLUSIVE; p1's later read is forwarded to p0 as a
        // cache-to-cache transfer even though p0 never wrote.
        let w = wl(vec![
            vec![StreamItem::read(0, 1), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(0, 1)],
            vec![StreamItem::barrier(0)],
            vec![StreamItem::barrier(0)],
        ]);
        let r = run_verified(proto_cfg(Protocol::Mesi, false), &w);
        assert_eq!(r.dir.reads_ctoc, 1, "the E holder must be intervened");
        // Under MSI both reads are clean memory fills.
        let msi = run_verified(proto_cfg(Protocol::Msi, false), &w);
        assert_eq!(msi.dir.reads_ctoc, 0);
    }

    #[test]
    fn moesi_owner_supplies_every_reader() {
        // Producer writes; two consumers read in separate phases. Under
        // MOESI the owner retains the line OWNED after the first read and
        // supplies the second reader too; under MSI the first read
        // downgrades everyone to Shared and the second is a memory fill.
        let w = wl(vec![
            vec![StreamItem::write(0, 1), StreamItem::barrier(0), StreamItem::barrier(1)],
            vec![StreamItem::barrier(0), StreamItem::read(0, 1), StreamItem::barrier(1)],
            vec![StreamItem::barrier(0), StreamItem::barrier(1), StreamItem::read(0, 1)],
            vec![StreamItem::barrier(0), StreamItem::barrier(1)],
        ]);
        let moesi = run_verified(proto_cfg(Protocol::Moesi, false), &w);
        assert_eq!(moesi.dir.reads_ctoc, 2, "both reads must be owner-supplied");
        assert_eq!(moesi.reads.dirty(), 2);
        let msi = run_verified(proto_cfg(Protocol::Msi, false), &w);
        assert_eq!(msi.dir.reads_ctoc, 1);
        assert_eq!(msi.reads.dirty(), 1);
    }

    #[test]
    fn moesi_write_after_dirty_sharing_invalidates_owner_and_sharers() {
        let w = wl(vec![
            vec![StreamItem::write(0, 1), StreamItem::barrier(0), StreamItem::barrier(1)],
            vec![StreamItem::barrier(0), StreamItem::read(0, 1), StreamItem::barrier(1)],
            vec![StreamItem::barrier(0), StreamItem::barrier(1), StreamItem::write(0, 1)],
            vec![StreamItem::barrier(0), StreamItem::barrier(1)],
        ]);
        let r = run_verified(proto_cfg(Protocol::Moesi, false), &w);
        assert!(r.dir.inval_rounds >= 1);
        assert!(
            r.dir.invals_sent >= 2,
            "owner and sharer must both be invalidated, got {}",
            r.dir.invals_sent
        );
    }

    #[test]
    fn dls_reads_to_dirty_blocks_bypass_the_intervention() {
        let w = wl(vec![
            vec![StreamItem::write(0, 1), StreamItem::barrier(0)],
            vec![StreamItem::barrier(0), StreamItem::read(0, 1)],
            vec![StreamItem::barrier(0)],
            vec![StreamItem::barrier(0)],
        ]);
        let r = run_verified(proto_cfg(Protocol::Dls, false), &w);
        assert_eq!(r.dir.reads_ctoc, 0, "the DLS baseline never forwards read interventions");
        assert_eq!(r.reads.clean, 1);
        assert_eq!(r.reads.dirty(), 0);
    }

    #[test]
    fn every_protocol_runs_coherently_with_switch_directories() {
        // The paper's SD mechanism is protocol-agnostic: hints stay safe
        // under every family member, including with producer/consumer
        // sharing that exercises retained (MOESI) copybacks through
        // switch-generated interventions.
        let blocks: Vec<u64> = (0..8).map(|i| i * 32).collect();
        let producer: Vec<StreamItem> = blocks
            .iter()
            .map(|&b| StreamItem::write(b, 2))
            .chain([StreamItem::barrier(0)])
            .collect();
        let consumer: Vec<StreamItem> = [StreamItem::barrier(0)]
            .into_iter()
            .chain(blocks.iter().map(|&b| StreamItem::read(b, 2)))
            .chain([StreamItem::write(0, 1)])
            .collect();
        let w = wl(vec![
            producer,
            consumer,
            vec![StreamItem::barrier(0), StreamItem::read(0, 2)],
            vec![StreamItem::barrier(0)],
        ]);
        for p in Protocol::ALL {
            let r = run_verified(proto_cfg(p, true), &w);
            assert!(r.refs_executed > 0, "{p}: no references executed");
        }
    }
}
