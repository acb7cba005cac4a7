//! The home-node full-map directory FSM.
//!
//! Per-block state is either *stable* — `Uncached`, `Shared(vector)`,
//! `Modified(owner)` — or *busy* while a transaction is in flight:
//!
//! * `BusyCtoC`: a read or write intervention has been forwarded to the
//!   owner and the home is waiting for the owner's `CopyBack` (or, in the
//!   eviction race, its `WriteBack`).
//! * `BusyInval`: invalidations are out and the home is counting acks
//!   before granting ownership to a writer.
//!
//! Requests that hit a busy block are queued (bounded) or NAK'd. Marked
//! copybacks/writebacks from switch directories carry additional sharer
//! pids that the home folds into the vector at completion time.

use dresar_obs::DirStateKind;
use dresar_types::{
    BlockAddr, FastMap, FromJson, JsonError, JsonValue, NodeId, Protocol, SharerSet, ToJson,
    MAX_NODES,
};
use std::collections::VecDeque;

fn kind_of(state: &DirState) -> DirStateKind {
    match state {
        DirState::Uncached => DirStateKind::Uncached,
        DirState::Shared(_) => DirStateKind::Shared,
        DirState::Modified(_) => DirStateKind::Modified,
        DirState::Owned { .. } => DirStateKind::Owned,
    }
}

/// Stable directory state of a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the block; memory is the only copy.
    Uncached,
    /// Read-only copies at the recorded sharers; memory is up to date.
    /// (The vector may include stale sharers that evicted silently.)
    Shared(SharerSet),
    /// One cache holds the block dirty — or, under MESI/MOESI, holds it
    /// EXCLUSIVE: the home cannot tell E from M (the silent-upgrade rule)
    /// and books both as ownership.
    Modified(NodeId),
    /// MOESI dirty sharing: `owner` holds the block OWNED and supplies
    /// reads; `sharers` hold read-only copies (the owner is *not* in the
    /// sharer vector). Never constructed under the other protocols.
    Owned {
        /// The cache that supplies the block.
        owner: NodeId,
        /// Read-only copy holders beside the owner.
        sharers: SharerSet,
    },
}

/// A queued request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Read (load miss).
    Read,
    /// Write / ownership request.
    Write,
}

/// A request parked in a block's pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedReq {
    /// The block concerned.
    pub block: BlockAddr,
    /// Requesting processor.
    pub requester: NodeId,
    /// Read or write.
    pub kind: ReqKind,
}

/// What the home directory wants the surrounding simulator to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirAction {
    /// Send the requester a clean `ReadReply` from memory.
    ReadReplyClean {
        /// Destination processor.
        to: NodeId,
    },
    /// Send the requester a clean `ReadReply` granting the EXCLUSIVE state
    /// (MESI/MOESI unshared-fill rule). The home books the requester as
    /// owner under `seq`, because the E copy may upgrade to M silently.
    ReadReplyExcl {
        /// Destination processor.
        to: NodeId,
        /// Sequence number of the granted ownership instance.
        seq: u64,
    },
    /// Send the requester a `WriteReply` granting ownership (with data).
    WriteReplyGrant {
        /// Destination processor.
        to: NodeId,
        /// Sequence number of the granted ownership instance.
        seq: u64,
    },
    /// Forward a `CtoCRequest` intervention to the owner.
    ForwardCtoC {
        /// Current owner to interrogate.
        owner: NodeId,
        /// Processor the data should be sent to.
        requester: NodeId,
        /// `true` when the intervention transfers ownership (write).
        write_intent: bool,
        /// Sequence of the owner's ownership instance being intervened.
        owner_seq: u64,
    },
    /// Send `Invalidate`s to `targets`; ownership will be granted to
    /// `writer` once all acks return.
    Invalidate {
        /// Sharers to invalidate.
        targets: SharerSet,
        /// Writer awaiting the grant.
        writer: NodeId,
    },
    /// NAK the requester (busy queue full, or a writeback race); the
    /// requester retries after backoff.
    Nak {
        /// Destination processor.
        to: NodeId,
    },
    /// The request was parked in the block's pending queue.
    Queued,
}

/// Busy sub-state of an in-flight transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Busy {
    /// Intervention forwarded to `owner` on behalf of `requester`.
    CtoC { owner: NodeId, requester: NodeId, write_intent: bool },
    /// Counting invalidation acks before granting to `writer`.
    Inval { writer: NodeId, acks_left: u32 },
}

#[derive(Debug, Clone)]
struct BlockEntry {
    state: DirState,
    busy: Option<Busy>,
    pending: VecDeque<QueuedReq>,
    /// Ownership-instance sequence: bumped on every transition into
    /// `Modified`. Grants and forwarded interventions carry it so owners
    /// can reject interventions for an instance they no longer hold (a
    /// retransmitted intervention can outlive its transaction).
    seq: u64,
}

impl BlockEntry {
    fn stable_uncached() -> Self {
        BlockEntry { state: DirState::Uncached, busy: None, pending: VecDeque::new(), seq: 0 }
    }

    fn is_quiescent(&self) -> bool {
        self.state == DirState::Uncached && self.busy.is_none() && self.pending.is_empty()
    }
}

/// Counters the evaluation section reads out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Reads serviced clean from memory.
    pub reads_clean: u64,
    /// Reads that required a home-forwarded cache-to-cache transfer —
    /// the "home node CtoC transfers" of Figure 8.
    pub reads_ctoc: u64,
    /// Write interventions forwarded to an owner.
    pub writes_ctoc: u64,
    /// Invalidation rounds started.
    pub inval_rounds: u64,
    /// Individual invalidations sent.
    pub invals_sent: u64,
    /// NAKs issued.
    pub naks: u64,
    /// Requests parked in pending queues.
    pub queued: u64,
    /// Marked copyback/writeback messages whose carried sharer pids were
    /// folded into the vector (the switch-directory protocol extension).
    pub marked_completions: u64,
    /// Full-map lookups performed (every request/completion handler consults
    /// the map once). The difference against total reads shows the lookups a
    /// switch directory *saved* the home.
    pub lookups: u64,
    /// High-water mark of concurrently busy (in-transaction) blocks — the
    /// FSM occupancy a sized transaction table would have needed.
    pub peak_busy: u64,
    /// High-water mark of total requests parked in pending queues.
    pub peak_pending: u64,
}

impl DirStats {
    /// Sums another instance's counters into this one (aggregation across
    /// home nodes). Peaks take the max: the merged value answers "how large
    /// would the busiest single controller's table have to be".
    pub fn merge(&mut self, other: &DirStats) {
        self.reads_clean += other.reads_clean;
        self.reads_ctoc += other.reads_ctoc;
        self.writes_ctoc += other.writes_ctoc;
        self.inval_rounds += other.inval_rounds;
        self.invals_sent += other.invals_sent;
        self.naks += other.naks;
        self.queued += other.queued;
        self.marked_completions += other.marked_completions;
        self.lookups += other.lookups;
        self.peak_busy = self.peak_busy.max(other.peak_busy);
        self.peak_pending = self.peak_pending.max(other.peak_pending);
    }
}

impl ToJson for DirStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("reads_clean", self.reads_clean)
            .field("reads_ctoc", self.reads_ctoc)
            .field("writes_ctoc", self.writes_ctoc)
            .field("inval_rounds", self.inval_rounds)
            .field("invals_sent", self.invals_sent)
            .field("naks", self.naks)
            .field("queued", self.queued)
            .field("marked_completions", self.marked_completions)
            .field("lookups", self.lookups)
            .field("peak_busy", self.peak_busy)
            .field("peak_pending", self.peak_pending)
            .build()
    }
}

impl FromJson for DirStats {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(DirStats {
            reads_clean: JsonError::want_u64(v, "reads_clean")?,
            reads_ctoc: JsonError::want_u64(v, "reads_ctoc")?,
            writes_ctoc: JsonError::want_u64(v, "writes_ctoc")?,
            inval_rounds: JsonError::want_u64(v, "inval_rounds")?,
            invals_sent: JsonError::want_u64(v, "invals_sent")?,
            naks: JsonError::want_u64(v, "naks")?,
            queued: JsonError::want_u64(v, "queued")?,
            marked_completions: JsonError::want_u64(v, "marked_completions")?,
            lookups: JsonError::want_u64(v, "lookups")?,
            peak_busy: JsonError::want_u64(v, "peak_busy")?,
            peak_pending: JsonError::want_u64(v, "peak_pending")?,
        })
    }
}

/// A protocol invariant violation the directory recorded instead of
/// corrupting state. Bounds violations (a node id at or past the machine
/// size) and impossible FSM transitions land here in release builds —
/// the old `debug_assert!`s vanished in release and let a bad id silently
/// wrap into the sharer vector. The simulator drains these into
/// `ExecutionReport::sim_errors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirError {
    /// Which handler / invariant tripped (e.g. `"dir_read_bounds"`).
    pub context: &'static str,
    /// Human-readable specifics (ids, machine size).
    pub detail: String,
}

/// The full-map directory for the blocks homed at one node.
#[derive(Debug, Clone)]
pub struct HomeDirectory {
    blocks: FastMap<BlockAddr, BlockEntry>,
    pending_limit: usize,
    /// Machine size: node ids must be `< nodes`. Ids at or past this are
    /// recorded as [`DirError`]s rather than entering the sharer vector.
    nodes: usize,
    /// Which member of the coherence-protocol family this home runs.
    protocol: Protocol,
    stats: DirStats,
    /// Protocol violations recorded in release builds (see [`DirError`]).
    errors: Vec<DirError>,
    /// Blocks currently mid-transaction (feeds `stats.peak_busy`).
    busy_now: u64,
    /// Requests currently parked across all queues (feeds
    /// `stats.peak_pending`).
    pending_now: u64,
}

/// Outcome of a completion-type message (copyback / writeback / inval ack):
/// zero or more immediate actions plus any pending requests to replay.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Completion {
    /// Actions to perform now (replies to waiting requesters, new
    /// invalidation rounds).
    pub actions: Vec<DirAction>,
    /// Pending requests unblocked by this completion; the caller must
    /// re-dispatch them through `handle_read`/`handle_write` in order.
    pub replay: Vec<QueuedReq>,
}

impl Default for HomeDirectory {
    fn default() -> Self {
        Self::new(8)
    }
}

impl HomeDirectory {
    /// Creates a directory with the given per-block pending-queue bound.
    /// Accepts the full `NodeId` range; use [`HomeDirectory::with_nodes`]
    /// to enforce the actual machine size.
    pub fn new(pending_limit: usize) -> Self {
        Self::with_nodes(pending_limit, MAX_NODES)
    }

    /// Creates a directory for a `nodes`-node machine: handler arguments
    /// naming ids `>= nodes` are rejected with a recorded [`DirError`]
    /// instead of corrupting the sharer vector. Runs the paper's MSI
    /// protocol; use [`HomeDirectory::with_protocol`] for the others.
    pub fn with_nodes(pending_limit: usize, nodes: usize) -> Self {
        Self::with_protocol(pending_limit, nodes, Protocol::Msi)
    }

    /// Creates a directory running one member of the protocol family.
    pub fn with_protocol(pending_limit: usize, nodes: usize, protocol: Protocol) -> Self {
        HomeDirectory {
            blocks: FastMap::default(),
            pending_limit,
            nodes,
            protocol,
            stats: DirStats::default(),
            errors: Vec::new(),
            busy_now: 0,
            pending_now: 0,
        }
    }

    /// Drains the protocol violations recorded so far (oldest first).
    pub fn take_errors(&mut self) -> Vec<DirError> {
        std::mem::take(&mut self.errors)
    }

    /// Whether any protocol violation has been recorded and not drained.
    pub fn has_errors(&self) -> bool {
        !self.errors.is_empty()
    }

    fn record_error(&mut self, context: &'static str, detail: String) {
        self.errors.push(DirError { context, detail });
    }

    /// Release-mode bounds guard: `true` iff `id` names a real node.
    fn node_ok(&mut self, context: &'static str, id: NodeId) -> bool {
        if (id as usize) < self.nodes {
            true
        } else {
            let nodes = self.nodes;
            self.record_error(
                context,
                format!("node id {id} out of range for a {nodes}-node machine"),
            );
            false
        }
    }

    /// Drops out-of-range pids from a carried sharer set, recording one
    /// error naming the offenders. In-range pids still fold in so one bad
    /// pid cannot wipe a marked completion.
    fn sanitize_carried(&mut self, context: &'static str, carried: SharerSet) -> SharerSet {
        let bad: Vec<NodeId> = carried.iter().filter(|&p| (p as usize) >= self.nodes).collect();
        if bad.is_empty() {
            return carried;
        }
        let nodes = self.nodes;
        self.record_error(
            context,
            format!("carried sharer ids {bad:?} out of range for a {nodes}-node machine"),
        );
        let mut clean = carried;
        for p in bad {
            clean.remove(p);
        }
        clean
    }

    /// Current stable state of a block (`Uncached` if never touched).
    /// Busy blocks report their pre-transaction stable state.
    pub fn state(&self, block: BlockAddr) -> DirState {
        self.blocks.get(&block).map(|e| e.state.clone()).unwrap_or(DirState::Uncached)
    }

    /// Whether a transaction is in flight for the block.
    pub fn is_busy(&self, block: BlockAddr) -> bool {
        self.blocks.get(&block).is_some_and(|e| e.busy.is_some())
    }

    /// Iterates every tracked block with its stable state and whether a
    /// transaction is mid-flight. Order is arbitrary (hash map); callers
    /// needing determinism must sort.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockAddr, DirState, bool)> + '_ {
        self.blocks.iter().map(|(&b, e)| (b, e.state.clone(), e.busy.is_some()))
    }

    /// Counters.
    pub fn stats(&self) -> DirStats {
        self.stats
    }

    /// Blocks currently mid-transaction (the live value behind
    /// [`DirStats::peak_busy`]); zero after a quiesced run.
    pub fn busy_now(&self) -> u64 {
        self.busy_now
    }

    /// Requests currently parked across all pending queues (the live value
    /// behind [`DirStats::peak_pending`]); zero after a quiesced run.
    pub fn pending_now(&self) -> u64 {
        self.pending_now
    }

    fn entry(&mut self, block: BlockAddr) -> &mut BlockEntry {
        self.blocks.entry(block).or_insert_with(BlockEntry::stable_uncached)
    }

    /// (busy?, parked requests) of one block — the only entry a handler can
    /// change, so before/after snapshots yield the occupancy delta.
    fn occupancy_of(&self, block: BlockAddr) -> (bool, usize) {
        self.blocks.get(&block).map_or((false, 0), |e| (e.busy.is_some(), e.pending.len()))
    }

    /// Folds one block's occupancy delta into the global counts and peaks.
    fn track_occupancy(&mut self, block: BlockAddr, before: (bool, usize)) {
        let after = self.occupancy_of(block);
        self.busy_now = self.busy_now + after.0 as u64 - before.0 as u64;
        self.pending_now = self.pending_now + after.1 as u64 - before.1 as u64;
        self.stats.peak_busy = self.stats.peak_busy.max(self.busy_now);
        self.stats.peak_pending = self.stats.peak_pending.max(self.pending_now);
    }

    /// Runs one request/completion handler on `block`: counts its full-map
    /// lookup and folds the block's occupancy change into the peaks.
    fn lookup<R>(&mut self, block: BlockAddr, handler: impl FnOnce(&mut Self) -> R) -> R {
        let before = self.occupancy_of(block);
        self.stats.lookups += 1;
        let out = handler(self);
        self.track_occupancy(block, before);
        out
    }

    /// A block's stable-state kind and whether a transaction is in flight:
    /// the two halves of each end of a [`HomeTransition`].
    ///
    /// [`HomeTransition`]: dresar_obs::HomeTransition
    pub fn fsm_state(&self, block: BlockAddr) -> (DirStateKind, bool) {
        self.blocks
            .get(&block)
            .map_or((DirStateKind::Uncached, false), |e| (kind_of(&e.state), e.busy.is_some()))
    }

    /// Drops quiescent entries to bound memory in long runs.
    pub fn compact(&mut self) {
        self.blocks.retain(|_, e| !e.is_quiescent());
    }

    fn park(&mut self, block: BlockAddr, requester: NodeId, kind: ReqKind) -> DirAction {
        let limit = self.pending_limit;
        let e = self.entry(block);
        if e.pending.len() >= limit {
            self.stats.naks += 1;
            DirAction::Nak { to: requester }
        } else {
            e.pending.push_back(QueuedReq { block, requester, kind });
            self.stats.queued += 1;
            DirAction::Queued
        }
    }

    /// Handles a `ReadRequest` arriving at the home.
    pub fn handle_read(&mut self, block: BlockAddr, requester: NodeId) -> DirAction {
        self.lookup(block, |d| {
            if !d.node_ok("dir_read_bounds", requester) {
                d.stats.naks += 1;
                return DirAction::Nak { to: requester };
            }
            if d.entry(block).busy.is_some() {
                return d.park(block, requester, ReqKind::Read);
            }
            let protocol = d.protocol;
            let e = d.entry(block);
            match e.state.clone() {
                DirState::Uncached if protocol.exclusive_read_fill() => {
                    // MESI/MOESI unshared fill: grant EXCLUSIVE and book the
                    // reader as owner (it may upgrade silently). Memory serves
                    // the data, so it still counts as a clean read.
                    e.state = DirState::Modified(requester);
                    e.seq += 1;
                    let seq = e.seq;
                    d.stats.reads_clean += 1;
                    DirAction::ReadReplyExcl { to: requester, seq }
                }
                DirState::Uncached => {
                    e.state = DirState::Shared(SharerSet::singleton(requester));
                    d.stats.reads_clean += 1;
                    DirAction::ReadReplyClean { to: requester }
                }
                DirState::Shared(mut set) => {
                    set.insert(requester);
                    e.state = DirState::Shared(set);
                    d.stats.reads_clean += 1;
                    DirAction::ReadReplyClean { to: requester }
                }
                DirState::Modified(owner) if owner == requester => {
                    // Writeback race: the directory still names the requester as
                    // owner, so its WriteBack must be in flight. NAK; the retry
                    // will find the block Uncached.
                    d.stats.naks += 1;
                    DirAction::Nak { to: requester }
                }
                DirState::Modified(_) if protocol.home_read_bypass() => {
                    // The directoryless-shared-LLC baseline: serve the read
                    // straight from memory, no intervention, no state change.
                    // The owner is left booked and the new reader untracked —
                    // the documented staleness cost of the bypass.
                    d.stats.reads_clean += 1;
                    DirAction::ReadReplyClean { to: requester }
                }
                DirState::Modified(owner) => {
                    e.busy = Some(Busy::CtoC { owner, requester, write_intent: false });
                    let act = DirAction::ForwardCtoC {
                        owner,
                        requester,
                        write_intent: false,
                        owner_seq: e.seq,
                    };
                    d.stats.reads_ctoc += 1;
                    act
                }
                DirState::Owned { owner, .. } if owner == requester => {
                    // Writeback race, as for Modified.
                    d.stats.naks += 1;
                    DirAction::Nak { to: requester }
                }
                DirState::Owned { owner, .. } => {
                    // MOESI owner-supplies rule: every read of a dirty-shared
                    // block is served by the owner, cache to cache.
                    e.busy = Some(Busy::CtoC { owner, requester, write_intent: false });
                    let act = DirAction::ForwardCtoC {
                        owner,
                        requester,
                        write_intent: false,
                        owner_seq: e.seq,
                    };
                    d.stats.reads_ctoc += 1;
                    act
                }
            }
        })
    }

    /// Handles a `WriteRequest` (ownership request) arriving at the home.
    pub fn handle_write(&mut self, block: BlockAddr, requester: NodeId) -> DirAction {
        self.lookup(block, |d| {
            if !d.node_ok("dir_write_bounds", requester) {
                d.stats.naks += 1;
                return DirAction::Nak { to: requester };
            }
            if d.entry(block).busy.is_some() {
                return d.park(block, requester, ReqKind::Write);
            }
            let e = d.entry(block);
            match e.state.clone() {
                DirState::Uncached => {
                    e.state = DirState::Modified(requester);
                    e.seq += 1;
                    DirAction::WriteReplyGrant { to: requester, seq: e.seq }
                }
                DirState::Shared(set) => {
                    let targets = {
                        let mut t = set;
                        t.remove(requester);
                        t
                    };
                    if targets.is_empty() {
                        e.state = DirState::Modified(requester);
                        e.seq += 1;
                        DirAction::WriteReplyGrant { to: requester, seq: e.seq }
                    } else {
                        e.busy = Some(Busy::Inval {
                            writer: requester,
                            acks_left: targets.len() as u32,
                        });
                        d.stats.inval_rounds += 1;
                        d.stats.invals_sent += targets.len() as u64;
                        DirAction::Invalidate { targets, writer: requester }
                    }
                }
                DirState::Modified(owner) if owner == requester => {
                    // Writeback race, as in handle_read.
                    d.stats.naks += 1;
                    DirAction::Nak { to: requester }
                }
                DirState::Modified(owner) => {
                    e.busy = Some(Busy::CtoC { owner, requester, write_intent: true });
                    let act = DirAction::ForwardCtoC {
                        owner,
                        requester,
                        write_intent: true,
                        owner_seq: e.seq,
                    };
                    d.stats.writes_ctoc += 1;
                    act
                }
                DirState::Owned { owner, sharers } => {
                    // MOESI write to a dirty-shared block: memory is fresh (the
                    // retained copyback refreshed it), so this is an invalidation
                    // round over owner + sharers, not an ownership transfer.
                    let targets = {
                        let mut t = sharers;
                        t.insert(owner);
                        t.remove(requester);
                        t
                    };
                    if targets.is_empty() {
                        // The owner itself upgrading with no other sharers.
                        e.state = DirState::Modified(requester);
                        e.seq += 1;
                        DirAction::WriteReplyGrant { to: requester, seq: e.seq }
                    } else {
                        e.busy = Some(Busy::Inval {
                            writer: requester,
                            acks_left: targets.len() as u32,
                        });
                        d.stats.inval_rounds += 1;
                        d.stats.invals_sent += targets.len() as u64;
                        DirAction::Invalidate { targets, writer: requester }
                    }
                }
            }
        })
    }

    /// Handles an `InvalAck`. When the last ack arrives, the waiting writer
    /// gets its grant and pending requests replay.
    pub fn handle_inval_ack(&mut self, block: BlockAddr) -> Completion {
        self.lookup(block, |d| {
            let e = d.entry(block);
            match e.busy {
                Some(Busy::Inval { acks_left: 0, .. }) => {
                    // Was a debug_assert!(acks_left > 0): an inval round can
                    // never be parked with zero outstanding acks, so reaching
                    // here means a duplicated or forged ack.
                    d.record_error(
                        "dir_inval_ack_underflow",
                        format!("InvalAck for {block:?} with zero acks outstanding"),
                    );
                    Completion::default()
                }
                Some(Busy::Inval { writer, acks_left }) => {
                    if acks_left == 1 {
                        e.busy = None;
                        e.state = DirState::Modified(writer);
                        e.seq += 1;
                        let replay = std::mem::take(&mut e.pending).into_iter().collect();
                        Completion {
                            actions: vec![DirAction::WriteReplyGrant { to: writer, seq: e.seq }],
                            replay,
                        }
                    } else {
                        e.busy = Some(Busy::Inval { writer, acks_left: acks_left - 1 });
                        Completion::default()
                    }
                }
                _ => {
                    // Was a debug_assert!(false, ...): promoted so release runs
                    // surface the stray ack instead of silently dropping it.
                    d.record_error(
                        "dir_inval_ack_stray",
                        format!("InvalAck for {block:?} with no inval round in flight"),
                    );
                    Completion::default()
                }
            }
        })
    }

    /// Handles a `CopyBack` from `from` — either solicited (the home
    /// forwarded an intervention) or unsolicited (a switch directory
    /// initiated the cache-to-cache transfer and the copyback is *marked*
    /// with the extra sharer pids in `carried`). A *retained* copyback
    /// (MOESI) means the supplier kept the block OWNED instead of
    /// downgrading to Shared; the home books it as the `Owned` owner.
    pub fn handle_copyback(
        &mut self,
        block: BlockAddr,
        from: NodeId,
        carried: SharerSet,
        retained: bool,
    ) -> Completion {
        self.lookup(block, |d| {
            if !d.node_ok("dir_copyback_bounds", from) {
                return Completion::default();
            }
            let carried = d.sanitize_carried("dir_copyback_carried_bounds", carried);
            if !carried.is_empty() {
                d.stats.marked_completions += 1;
            }
            let e = d.entry(block);
            // Sharers already recorded beside `from` when the block is Owned —
            // an O owner re-serving a read must not wipe them.
            let prior = match &e.state {
                DirState::Owned { owner, sharers } if *owner == from => sharers.clone(),
                _ => SharerSet::EMPTY,
            };
            match e.busy {
                Some(Busy::CtoC { owner, requester, write_intent }) if owner == from => {
                    e.busy = None;
                    if write_intent && carried.is_empty() {
                        // Ownership transfer completed owner -> requester. The
                        // bumped seq matches the one `serve_intervention` stamped
                        // on the CtoCData grant (intervened seq + 1).
                        e.state = DirState::Modified(requester);
                        e.seq += 1;
                        let replay = std::mem::take(&mut e.pending).into_iter().collect();
                        return Completion { actions: vec![], replay };
                    }
                    // Read intervention completed (or a switch-initiated read
                    // CtoC completed while we were waiting): memory is fresh;
                    // the owner downgraded to Shared — or, MOESI, kept OWNED.
                    let mut set =
                        SharerSet::singleton(owner).union(carried.clone()).union(prior.clone());
                    if write_intent {
                        // Our waiting transaction was a write but the owner
                        // serviced a read CtoC first: everyone now sharing must
                        // be invalidated before the writer gets ownership.
                        let targets = {
                            let mut t = set.clone();
                            t.remove(requester);
                            t
                        };
                        if targets.is_empty() {
                            e.state = DirState::Modified(requester);
                            e.seq += 1;
                            let replay = std::mem::take(&mut e.pending).into_iter().collect();
                            return Completion {
                                actions: vec![DirAction::WriteReplyGrant {
                                    to: requester,
                                    seq: e.seq,
                                }],
                                replay,
                            };
                        }
                        e.state = if retained {
                            let mut sharers = carried.union(prior);
                            sharers.remove(from);
                            DirState::Owned { owner: from, sharers }
                        } else {
                            DirState::Shared(set)
                        };
                        e.busy = Some(Busy::Inval {
                            writer: requester,
                            acks_left: targets.len() as u32,
                        });
                        d.stats.inval_rounds += 1;
                        d.stats.invals_sent += targets.len() as u64;
                        return Completion {
                            actions: vec![DirAction::Invalidate { targets, writer: requester }],
                            replay: vec![],
                        };
                    }
                    e.state = if retained {
                        let mut sharers = carried.union(prior);
                        sharers.insert(requester);
                        sharers.remove(from);
                        DirState::Owned { owner: from, sharers }
                    } else {
                        set.insert(requester);
                        DirState::Shared(set)
                    };
                    let replay = std::mem::take(&mut e.pending).into_iter().collect();
                    Completion {
                        actions: vec![DirAction::ReadReplyClean { to: requester }],
                        replay,
                    }
                }
                _ => {
                    // Unsolicited: a switch-directory-initiated CtoC. The block
                    // must be recorded with `from` as owner; fold in carried
                    // sharers (and keep the owner OWNED when it retained).
                    match e.state.clone() {
                        DirState::Modified(owner) if owner == from => {
                            e.state = if retained {
                                DirState::Owned { owner: from, sharers: carried }
                            } else {
                                DirState::Shared(SharerSet::singleton(from).union(carried))
                            };
                            let replay = std::mem::take(&mut e.pending).into_iter().collect();
                            Completion { actions: vec![], replay }
                        }
                        DirState::Owned { owner, sharers } if owner == from => {
                            // An O owner re-served another reader through a
                            // switch; it stays owner either way.
                            e.state =
                                DirState::Owned { owner: from, sharers: sharers.union(carried) };
                            let replay = std::mem::take(&mut e.pending).into_iter().collect();
                            Completion { actions: vec![], replay }
                        }
                        _ => {
                            // Stale copyback (transaction already resolved by a
                            // racing writeback). Memory write is harmless; fold
                            // carried sharers if the state is Shared.
                            if let DirState::Shared(set) = e.state.clone() {
                                e.state = DirState::Shared(set.union(carried));
                            }
                            Completion::default()
                        }
                    }
                }
            }
        })
    }

    /// Handles a `WriteBack` (dirty eviction) from `from`. A *marked*
    /// writeback (non-empty `carried`) means a switch directory already
    /// answered some requester with the writeback's data, so those pids
    /// enter the vector as sharers.
    pub fn handle_writeback(
        &mut self,
        block: BlockAddr,
        from: NodeId,
        carried: SharerSet,
    ) -> Completion {
        self.lookup(block, |d| {
            if !d.node_ok("dir_writeback_bounds", from) {
                return Completion::default();
            }
            let carried = d.sanitize_carried("dir_writeback_carried_bounds", carried);
            if !carried.is_empty() {
                d.stats.marked_completions += 1;
            }
            let e = d.entry(block);
            // Sharers recorded beside an OWNED `from` survive its eviction —
            // their copies are still valid (memory is fresh under MOESI).
            let prior = match &e.state {
                DirState::Owned { owner, sharers } if *owner == from => sharers.clone(),
                _ => SharerSet::EMPTY,
            };
            match e.busy {
                Some(Busy::CtoC { owner, requester, write_intent }) if owner == from => {
                    // Eviction race: the owner wrote back before our intervention
                    // reached it. Serve the waiting requester from memory.
                    e.busy = None;
                    if write_intent {
                        let targets = carried.union(prior);
                        if targets.is_empty() {
                            e.state = DirState::Modified(requester);
                            e.seq += 1;
                            let replay = std::mem::take(&mut e.pending).into_iter().collect();
                            return Completion {
                                actions: vec![DirAction::WriteReplyGrant {
                                    to: requester,
                                    seq: e.seq,
                                }],
                                replay,
                            };
                        }
                        e.state = DirState::Shared(targets.clone());
                        e.busy = Some(Busy::Inval {
                            writer: requester,
                            acks_left: targets.len() as u32,
                        });
                        d.stats.inval_rounds += 1;
                        d.stats.invals_sent += targets.len() as u64;
                        return Completion {
                            actions: vec![DirAction::Invalidate { targets, writer: requester }],
                            replay: vec![],
                        };
                    }
                    let set = SharerSet::singleton(requester).union(carried).union(prior);
                    e.state = DirState::Shared(set);
                    let replay = std::mem::take(&mut e.pending).into_iter().collect();
                    Completion {
                        actions: vec![DirAction::ReadReplyClean { to: requester }],
                        replay,
                    }
                }
                _ => match e.state.clone() {
                    DirState::Modified(owner) if owner == from => {
                        e.state = if carried.is_empty() {
                            DirState::Uncached
                        } else {
                            DirState::Shared(carried)
                        };
                        let replay = std::mem::take(&mut e.pending).into_iter().collect();
                        Completion { actions: vec![], replay }
                    }
                    DirState::Owned { owner, sharers } if owner == from => {
                        // The O owner evicted; the remaining sharers keep their
                        // clean copies (memory already has the data).
                        let left = sharers.union(carried);
                        e.state = if left.is_empty() {
                            DirState::Uncached
                        } else {
                            DirState::Shared(left)
                        };
                        let replay = std::mem::take(&mut e.pending).into_iter().collect();
                        Completion { actions: vec![], replay }
                    }
                    _ => {
                        // Stale writeback (e.g. the block was already taken over
                        // by another writer after a read-CtoC downgrade made the
                        // evicting cache a mere sharer). Ignore.
                        Completion::default()
                    }
                },
            }
        })
    }

    /// Number of block entries currently tracked (diagnostic).
    pub fn tracked_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr(42);

    #[test]
    fn cold_read_is_clean_and_records_sharer() {
        let mut d = HomeDirectory::default();
        assert_eq!(d.handle_read(B, 3), DirAction::ReadReplyClean { to: 3 });
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(3)));
        assert_eq!(d.stats().reads_clean, 1);
    }

    #[test]
    fn shared_read_accumulates_sharers() {
        let mut d = HomeDirectory::default();
        d.handle_read(B, 1);
        d.handle_read(B, 2);
        match d.state(B) {
            DirState::Shared(s) => {
                assert!(s.contains(1) && s.contains(2));
                assert_eq!(s.len(), 2);
            }
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn cold_write_grants_ownership() {
        let mut d = HomeDirectory::default();
        assert_eq!(d.handle_write(B, 5), DirAction::WriteReplyGrant { to: 5, seq: 1 });
        assert_eq!(d.state(B), DirState::Modified(5));
    }

    #[test]
    fn write_to_shared_invalidates_then_grants() {
        let mut d = HomeDirectory::default();
        d.handle_read(B, 1);
        d.handle_read(B, 2);
        let act = d.handle_write(B, 3);
        let expected: SharerSet = [1u8, 2].into_iter().collect();
        assert_eq!(act, DirAction::Invalidate { targets: expected, writer: 3 });
        assert!(d.is_busy(B));
        // First ack: still waiting.
        assert_eq!(d.handle_inval_ack(B), Completion::default());
        // Second ack: grant.
        let c = d.handle_inval_ack(B);
        assert_eq!(c.actions, vec![DirAction::WriteReplyGrant { to: 3, seq: 1 }]);
        assert_eq!(d.state(B), DirState::Modified(3));
        assert!(!d.is_busy(B));
    }

    #[test]
    fn writer_already_sharing_skips_self_invalidation() {
        let mut d = HomeDirectory::default();
        d.handle_read(B, 1);
        // Upgrade by the only sharer: immediate grant.
        assert_eq!(d.handle_write(B, 1), DirAction::WriteReplyGrant { to: 1, seq: 1 });
        assert_eq!(d.state(B), DirState::Modified(1));
    }

    #[test]
    fn read_to_modified_forwards_ctoc_and_copyback_completes() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        let act = d.handle_read(B, 2);
        assert_eq!(
            act,
            DirAction::ForwardCtoC { owner: 7, requester: 2, write_intent: false, owner_seq: 1 }
        );
        assert_eq!(d.stats().reads_ctoc, 1);
        let c = d.handle_copyback(B, 7, SharerSet::EMPTY, false);
        assert_eq!(c.actions, vec![DirAction::ReadReplyClean { to: 2 }]);
        let expected: SharerSet = [2u8, 7].into_iter().collect();
        assert_eq!(d.state(B), DirState::Shared(expected));
    }

    #[test]
    fn write_to_modified_transfers_ownership() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        let act = d.handle_write(B, 2);
        assert_eq!(
            act,
            DirAction::ForwardCtoC { owner: 7, requester: 2, write_intent: true, owner_seq: 1 }
        );
        let c = d.handle_copyback(B, 7, SharerSet::EMPTY, false);
        assert!(c.actions.is_empty(), "ownership transfer needs no home reply");
        assert_eq!(d.state(B), DirState::Modified(2));
    }

    #[test]
    fn requests_during_busy_are_queued_and_replayed() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        d.handle_read(B, 1); // busy: CtoC
        assert_eq!(d.handle_read(B, 2), DirAction::Queued);
        assert_eq!(d.handle_write(B, 3), DirAction::Queued);
        let c = d.handle_copyback(B, 7, SharerSet::EMPTY, false);
        assert_eq!(
            c.replay,
            vec![
                QueuedReq { block: B, requester: 2, kind: ReqKind::Read },
                QueuedReq { block: B, requester: 3, kind: ReqKind::Write },
            ]
        );
    }

    #[test]
    fn pending_queue_overflow_naks() {
        let mut d = HomeDirectory::new(2);
        d.handle_write(B, 7);
        d.handle_read(B, 1); // busy
        assert_eq!(d.handle_read(B, 2), DirAction::Queued);
        assert_eq!(d.handle_read(B, 3), DirAction::Queued);
        assert_eq!(d.handle_read(B, 4), DirAction::Nak { to: 4 });
        assert_eq!(d.stats().naks, 1);
    }

    #[test]
    fn writeback_race_naks_the_owner_request() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        // Owner 7 asks again while the directory still names it owner:
        // only possible when its writeback is in flight.
        assert_eq!(d.handle_read(B, 7), DirAction::Nak { to: 7 });
        assert_eq!(d.handle_write(B, 7), DirAction::Nak { to: 7 });
        // Writeback lands; retries now succeed.
        d.handle_writeback(B, 7, SharerSet::EMPTY);
        assert_eq!(d.state(B), DirState::Uncached);
        assert_eq!(d.handle_read(B, 7), DirAction::ReadReplyClean { to: 7 });
    }

    #[test]
    fn eviction_race_during_read_ctoc_serves_requester_from_memory() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        d.handle_read(B, 2); // busy CtoC to owner 7
                             // Owner evicts before the intervention arrives.
        let c = d.handle_writeback(B, 7, SharerSet::EMPTY);
        assert_eq!(c.actions, vec![DirAction::ReadReplyClean { to: 2 }]);
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(2)));
    }

    #[test]
    fn eviction_race_during_write_ctoc_grants_from_memory() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        d.handle_write(B, 2); // busy CtoC (write intent)
        let c = d.handle_writeback(B, 7, SharerSet::EMPTY);
        assert_eq!(c.actions, vec![DirAction::WriteReplyGrant { to: 2, seq: 2 }]);
        assert_eq!(d.state(B), DirState::Modified(2));
    }

    #[test]
    fn marked_copyback_installs_switch_served_sharers() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        // Switch directory served requester 4 directly; owner's copyback is
        // marked with pid 4 and arrives unsolicited.
        let c = d.handle_copyback(B, 7, SharerSet::singleton(4), false);
        assert!(c.actions.is_empty());
        let expected: SharerSet = [4u8, 7].into_iter().collect();
        assert_eq!(d.state(B), DirState::Shared(expected));
        assert_eq!(d.stats().marked_completions, 1);
    }

    #[test]
    fn marked_writeback_installs_switch_served_sharers() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        // The switch replied to requester 4 from the writeback's data.
        let c = d.handle_writeback(B, 7, SharerSet::singleton(4));
        assert!(c.actions.is_empty());
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(4)));
    }

    #[test]
    fn copyback_while_write_busy_triggers_invalidation_round() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        d.handle_write(B, 2); // home wants ownership moved to 2
                              // But a switch-initiated *read* CtoC completed first: owner 7 copies
                              // back marked with new sharer 4. Sharers {7,4} must be invalidated
                              // before 2 can own the block.
        let c = d.handle_copyback(B, 7, SharerSet::singleton(4), false);
        let expected: SharerSet = [4u8, 7].into_iter().collect();
        assert_eq!(c.actions, vec![DirAction::Invalidate { targets: expected, writer: 2 }]);
        d.handle_inval_ack(B);
        let c = d.handle_inval_ack(B);
        assert_eq!(c.actions, vec![DirAction::WriteReplyGrant { to: 2, seq: 2 }]);
        assert_eq!(d.state(B), DirState::Modified(2));
    }

    #[test]
    fn stale_writeback_is_ignored() {
        let mut d = HomeDirectory::default();
        d.handle_read(B, 1);
        // Writeback from a node that is not the owner: dropped.
        let c = d.handle_writeback(B, 9, SharerSet::EMPTY);
        assert_eq!(c, Completion::default());
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(1)));
    }

    #[test]
    fn lookups_and_occupancy_peaks_tracked() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7); // lookup 1
        d.handle_read(B, 2); // lookup 2: busy CtoC (busy_now = 1)
        d.handle_write(BlockAddr(43), 5); // lookup 3
        d.handle_write(BlockAddr(43), 6); // lookup 4: busy CtoC (busy_now = 2)
        d.handle_read(B, 3); // lookup 5: parked (pending_now = 1)
        assert_eq!(d.stats().lookups, 5);
        assert_eq!(d.stats().peak_busy, 2);
        assert_eq!(d.stats().peak_pending, 1);
        // Completions drain the occupancy but peaks persist.
        d.handle_copyback(B, 7, SharerSet::EMPTY, false);
        d.handle_copyback(BlockAddr(43), 5, SharerSet::EMPTY, false);
        assert!(!d.is_busy(B) && !d.is_busy(BlockAddr(43)));
        assert_eq!(d.stats().peak_busy, 2);
        // Merge takes the max of peaks, the sum of lookups.
        let mut a = d.stats();
        let b = DirStats { peak_busy: 7, lookups: 10, ..DirStats::default() };
        a.merge(&b);
        assert_eq!(a.peak_busy, 7);
        assert_eq!(a.lookups, 17);
    }

    #[test]
    fn out_of_range_requester_is_rejected_with_recorded_error() {
        let mut d = HomeDirectory::with_nodes(8, 16);
        assert_eq!(d.handle_read(B, 200), DirAction::Nak { to: 200 });
        assert_eq!(d.handle_write(B, 16), DirAction::Nak { to: 16 });
        // No silent wrap: nothing entered the directory state.
        assert_eq!(d.state(B), DirState::Uncached);
        let errs = d.take_errors();
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[0].context, "dir_read_bounds");
        assert_eq!(errs[1].context, "dir_write_bounds");
        assert!(errs[0].detail.contains("200"));
        assert!(!d.has_errors());
    }

    #[test]
    fn out_of_range_carried_pids_are_filtered_and_reported() {
        let mut d = HomeDirectory::with_nodes(8, 16);
        d.handle_write(B, 7);
        let carried: SharerSet = [4u8, 40].into_iter().collect();
        d.handle_copyback(B, 7, carried, false);
        // The valid pid folded in; the bogus one was dropped, not wrapped.
        let expected: SharerSet = [4u8, 7].into_iter().collect();
        assert_eq!(d.state(B), DirState::Shared(expected));
        let errs = d.take_errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].context, "dir_copyback_carried_bounds");
        assert!(errs[0].detail.contains("40"));
    }

    #[test]
    fn out_of_range_completion_sender_is_dropped() {
        let mut d = HomeDirectory::with_nodes(8, 16);
        d.handle_write(B, 7);
        assert_eq!(d.handle_writeback(B, 99, SharerSet::EMPTY), Completion::default());
        assert_eq!(d.state(B), DirState::Modified(7));
        assert_eq!(d.take_errors()[0].context, "dir_writeback_bounds");
    }

    #[test]
    fn stray_inval_ack_is_recorded_not_asserted() {
        let mut d = HomeDirectory::default();
        assert_eq!(d.handle_inval_ack(B), Completion::default());
        let errs = d.take_errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].context, "dir_inval_ack_stray");
    }

    #[test]
    fn compact_drops_quiescent_blocks() {
        let mut d = HomeDirectory::default();
        d.handle_write(B, 7);
        d.handle_writeback(B, 7, SharerSet::EMPTY);
        assert_eq!(d.state(B), DirState::Uncached);
        assert!(d.tracked_blocks() > 0);
        d.compact();
        assert_eq!(d.tracked_blocks(), 0);
    }

    #[test]
    fn mesi_cold_read_grants_exclusive_and_books_owner() {
        let mut d = HomeDirectory::with_protocol(8, 16, Protocol::Mesi);
        assert_eq!(d.handle_read(B, 3), DirAction::ReadReplyExcl { to: 3, seq: 1 });
        // Booked as ownership: a later reader goes through an intervention.
        assert_eq!(d.state(B), DirState::Modified(3));
        assert_eq!(d.stats().reads_clean, 1);
        assert_eq!(
            d.handle_read(B, 5),
            DirAction::ForwardCtoC { owner: 3, requester: 5, write_intent: false, owner_seq: 1 }
        );
        // Under MSI the same cold read stays a plain shared fill.
        let mut msi = HomeDirectory::with_nodes(8, 16);
        assert_eq!(msi.handle_read(B, 3), DirAction::ReadReplyClean { to: 3 });
        assert_eq!(msi.state(B), DirState::Shared(SharerSet::singleton(3)));
    }

    #[test]
    fn dls_read_to_modified_bypasses_the_intervention() {
        let mut d = HomeDirectory::with_protocol(8, 16, Protocol::Dls);
        d.handle_write(B, 7);
        // The directoryless baseline serves the read from memory: no busy
        // state, no forwarded intervention, owner still booked.
        assert_eq!(d.handle_read(B, 2), DirAction::ReadReplyClean { to: 2 });
        assert_eq!(d.state(B), DirState::Modified(7));
        assert!(!d.is_busy(B));
        assert_eq!(d.stats().reads_ctoc, 0);
        assert_eq!(d.stats().reads_clean, 1);
        // The owner's own writeback race still NAKs.
        assert_eq!(d.handle_read(B, 7), DirAction::Nak { to: 7 });
    }

    #[test]
    fn moesi_retained_copyback_enters_owned_and_owner_keeps_serving() {
        let mut d = HomeDirectory::with_protocol(8, 16, Protocol::Moesi);
        d.handle_write(B, 7);
        d.handle_read(B, 2); // ForwardCtoC to 7
        let c = d.handle_copyback(B, 7, SharerSet::EMPTY, true);
        assert_eq!(c.actions, vec![DirAction::ReadReplyClean { to: 2 }]);
        assert_eq!(d.state(B), DirState::Owned { owner: 7, sharers: SharerSet::singleton(2) });
        // Next read is again owner-supplied, and the retained copyback
        // accumulates the new sharer without losing the old one.
        assert_eq!(
            d.handle_read(B, 4),
            DirAction::ForwardCtoC { owner: 7, requester: 4, write_intent: false, owner_seq: 1 }
        );
        assert_eq!(d.stats().reads_ctoc, 2);
        d.handle_copyback(B, 7, SharerSet::EMPTY, true);
        let expected: SharerSet = [2u8, 4].into_iter().collect();
        assert_eq!(d.state(B), DirState::Owned { owner: 7, sharers: expected });
    }

    #[test]
    fn moesi_write_to_owned_invalidates_owner_and_sharers() {
        let mut d = HomeDirectory::with_protocol(8, 16, Protocol::Moesi);
        d.handle_write(B, 7);
        d.handle_read(B, 2);
        d.handle_copyback(B, 7, SharerSet::EMPTY, true); // Owned{7, {2}}
        let act = d.handle_write(B, 3);
        let expected: SharerSet = [2u8, 7].into_iter().collect();
        assert_eq!(act, DirAction::Invalidate { targets: expected, writer: 3 });
        d.handle_inval_ack(B);
        let c = d.handle_inval_ack(B);
        assert_eq!(c.actions, vec![DirAction::WriteReplyGrant { to: 3, seq: 2 }]);
        assert_eq!(d.state(B), DirState::Modified(3));
    }

    #[test]
    fn moesi_owner_upgrade_skips_self_invalidation() {
        let mut d = HomeDirectory::with_protocol(8, 16, Protocol::Moesi);
        d.handle_write(B, 7);
        d.handle_read(B, 2);
        d.handle_copyback(B, 7, SharerSet::EMPTY, true); // Owned{7, {2}}
                                                         // The owner upgrading only invalidates the sharer, not itself.
        assert_eq!(
            d.handle_write(B, 7),
            DirAction::Invalidate { targets: SharerSet::singleton(2), writer: 7 }
        );
        let c = d.handle_inval_ack(B);
        assert_eq!(c.actions, vec![DirAction::WriteReplyGrant { to: 7, seq: 2 }]);
        assert_eq!(d.state(B), DirState::Modified(7));
    }

    #[test]
    fn moesi_owner_writeback_leaves_sharers_clean() {
        let mut d = HomeDirectory::with_protocol(8, 16, Protocol::Moesi);
        d.handle_write(B, 7);
        d.handle_read(B, 2);
        d.handle_copyback(B, 7, SharerSet::EMPTY, true); // Owned{7, {2}}
        let c = d.handle_writeback(B, 7, SharerSet::EMPTY);
        assert_eq!(c, Completion::default());
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(2)));
    }

    #[test]
    fn moesi_eviction_race_during_owned_read_merges_prior_sharers() {
        let mut d = HomeDirectory::with_protocol(8, 16, Protocol::Moesi);
        d.handle_write(B, 7);
        d.handle_read(B, 2);
        d.handle_copyback(B, 7, SharerSet::EMPTY, true); // Owned{7, {2}}
        d.handle_read(B, 4); // busy CtoC to owner 7
                             // Owner evicts before the intervention lands: requester is served
                             // from memory and sharer 2's copy survives.
        let c = d.handle_writeback(B, 7, SharerSet::EMPTY);
        assert_eq!(c.actions, vec![DirAction::ReadReplyClean { to: 4 }]);
        let expected: SharerSet = [2u8, 4].into_iter().collect();
        assert_eq!(d.state(B), DirState::Shared(expected));
    }
}
