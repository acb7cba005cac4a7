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
//! One entry point, [`HomeDirectory::handle`], takes a block and the
//! [`Request`] that arrived for it and returns one [`Outcome`]: the
//! action to perform and the parked requests to handle again. Requests
//! that hit a busy block are queued (bounded) or NAK'd. Marked
//! copybacks/writebacks from switch directories carry additional sharer
//! pids that the home folds into the vector at completion time.

use dresar_obs::{DirStateKind, HomeReq};
use dresar_types::{BlockAddr, FastMap, JsonValue, NodeId, Protocol, SharerSet, ToJson};
use std::collections::VecDeque;

fn kind_of(state: &DirState) -> DirStateKind {
    match state {
        DirState::Uncached => DirStateKind::Uncached,
        DirState::Shared(_) => DirStateKind::Shared,
        DirState::Modified(_) => DirStateKind::Modified,
        DirState::Owned { .. } => DirStateKind::Owned,
    }
}

/// `Shared(set)`, or `Uncached` when no copy is left.
fn shared_or_uncached(set: SharerSet) -> DirState {
    if set.is_empty() {
        DirState::Uncached
    } else {
        DirState::Shared(set)
    }
}

/// Stable directory state of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// A message arriving at the home directory for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `ReadRequest` (load miss).
    Read {
        /// Requesting processor.
        requester: NodeId,
    },
    /// `WriteRequest` (ownership request).
    Write {
        /// Requesting processor.
        requester: NodeId,
    },
    /// `InvalAck` for the block's invalidation round.
    InvalAck,
    /// `CopyBack` — either solicited (the home forwarded an intervention)
    /// or unsolicited (a switch directory initiated the cache-to-cache
    /// transfer and *marked* the copyback with the extra sharer pids in
    /// `carried`).
    CopyBack {
        /// The supplying cache.
        from: NodeId,
        /// Sharers a switch directory served on the way.
        carried: SharerSet,
        /// MOESI: the supplier kept the block OWNED instead of downgrading
        /// to Shared; the home books it as the `Owned` owner.
        retained: bool,
    },
    /// `WriteBack` (dirty eviction). A *marked* writeback (non-empty
    /// `carried`) means a switch directory already answered some
    /// requesters with its data, so those pids enter the vector.
    WriteBack {
        /// The evicting cache.
        from: NodeId,
        /// Sharers a switch directory served from the writeback's data.
        carried: SharerSet,
    },
}

impl Request {
    /// The request kind a [`HomeTransition`] reports.
    ///
    /// [`HomeTransition`]: dresar_obs::HomeTransition
    pub fn kind(&self) -> HomeReq {
        match self {
            Request::Read { .. } => HomeReq::Read,
            Request::Write { .. } => HomeReq::Write,
            Request::InvalAck => HomeReq::InvalAck,
            Request::CopyBack { .. } => HomeReq::CopyBack,
            Request::WriteBack { .. } => HomeReq::WriteBack,
        }
    }
}

/// What the home directory wants the surrounding simulator to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// What handling one [`Request`] asks of the surrounding simulator, and
/// the FSM transition it made.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// The action to perform now, if any.
    pub action: Option<DirAction>,
    /// Parked requests the completion unblocked, in queue order. The
    /// caller performs `action` first, then hands each of these to
    /// [`HomeDirectory::handle`] again.
    pub replay: VecDeque<Request>,
    /// The block's [`HomeDirectory::fsm_state`] before the request.
    pub from: (DirStateKind, bool),
    /// The block's [`HomeDirectory::fsm_state`] after the request.
    pub to: (DirStateKind, bool),
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
    pending: VecDeque<Request>,
    /// Ownership-instance sequence: bumped on every transition into
    /// `Modified`. Grants and forwarded interventions carry it so owners
    /// can reject interventions for an instance they no longer hold (a
    /// retransmitted intervention can outlive its transaction).
    seq: u64,
}

/// An action to perform, and whether the block's parked requests run
/// again after it.
type Step = (Option<DirAction>, bool);

impl BlockEntry {
    fn stable_uncached() -> Self {
        BlockEntry { state: DirState::Uncached, busy: None, pending: VecDeque::new(), seq: 0 }
    }

    /// The stable-state kind and whether a transaction is in flight.
    fn fsm_state(&self) -> (DirStateKind, bool) {
        (kind_of(&self.state), self.busy.is_some())
    }

    fn is_quiescent(&self) -> bool {
        self.state == DirState::Uncached && self.busy.is_none() && self.pending.is_empty()
    }

    /// Runs one in-range request against this block.
    fn step(&mut self, req: Request, pending_limit: usize, protocol: Protocol) -> Step {
        match req {
            Request::Read { requester } | Request::Write { requester } if self.busy.is_some() => {
                if self.pending.len() >= pending_limit {
                    return (Some(DirAction::Nak { to: requester }), false);
                }
                self.pending.push_back(req);
                (Some(DirAction::Queued), false)
            }
            Request::Read { requester } => (Some(self.read(requester, protocol)), false),
            Request::Write { requester } => (Some(self.write(requester)), false),
            Request::InvalAck => self.inval_ack(),
            Request::CopyBack { from, carried, retained } => self.copyback(from, carried, retained),
            Request::WriteBack { from, carried } => self.writeback(from, carried),
        }
    }

    /// Books `writer` as the owner of a new ownership instance and
    /// returns its grant.
    fn grant(&mut self, writer: NodeId) -> DirAction {
        self.state = DirState::Modified(writer);
        self.seq += 1;
        DirAction::WriteReplyGrant { to: writer, seq: self.seq }
    }

    /// Grants `writer` ownership, or, while other copies (`targets`)
    /// remain, starts the invalidation round that must come first.
    fn grant_or_invalidate(&mut self, writer: NodeId, targets: SharerSet) -> DirAction {
        if targets.is_empty() {
            return self.grant(writer);
        }
        self.busy = Some(Busy::Inval { writer, acks_left: targets.len() as u32 });
        DirAction::Invalidate { targets, writer }
    }

    /// Forwards an intervention to `owner` and waits for its completion.
    fn intervene(&mut self, owner: NodeId, requester: NodeId, write_intent: bool) -> DirAction {
        self.busy = Some(Busy::CtoC { owner, requester, write_intent });
        DirAction::ForwardCtoC { owner, requester, write_intent, owner_seq: self.seq }
    }

    /// Sharers recorded beside `from` when it owns the block OWNED: they
    /// keep their copies across its copyback or eviction (memory is fresh
    /// under MOESI).
    fn sharers_beside(&self, from: NodeId) -> SharerSet {
        match self.state {
            DirState::Owned { owner, sharers } if owner == from => sharers,
            _ => SharerSet::EMPTY,
        }
    }

    fn read(&mut self, requester: NodeId, protocol: Protocol) -> DirAction {
        match self.state {
            DirState::Uncached if protocol.exclusive_read_fill() => {
                // MESI/MOESI unshared fill: grant EXCLUSIVE and book the
                // reader as owner (it may upgrade silently). Memory serves
                // the data, so it still counts as a clean read.
                self.state = DirState::Modified(requester);
                self.seq += 1;
                DirAction::ReadReplyExcl { to: requester, seq: self.seq }
            }
            DirState::Uncached => {
                self.state = DirState::Shared(SharerSet::singleton(requester));
                DirAction::ReadReplyClean { to: requester }
            }
            DirState::Shared(mut set) => {
                set.insert(requester);
                self.state = DirState::Shared(set);
                DirAction::ReadReplyClean { to: requester }
            }
            DirState::Modified(owner) | DirState::Owned { owner, .. } if owner == requester => {
                // Writeback race: the directory still names the requester as
                // owner, so its WriteBack must be in flight. NAK; the retry
                // will find the block Uncached.
                DirAction::Nak { to: requester }
            }
            DirState::Modified(_) if protocol.home_read_bypass() => {
                // The directoryless-shared-LLC baseline: serve the read
                // straight from memory, no intervention, no state change.
                // The owner is left booked and the new reader untracked —
                // the documented staleness cost of the bypass.
                DirAction::ReadReplyClean { to: requester }
            }
            // MOESI owner-supplies rule: every read of a dirty-shared block
            // is served by the owner, cache to cache.
            DirState::Modified(owner) | DirState::Owned { owner, .. } => {
                self.intervene(owner, requester, false)
            }
        }
    }

    fn write(&mut self, requester: NodeId) -> DirAction {
        let mut targets = match self.state {
            DirState::Modified(owner) if owner == requester => {
                // Writeback race, as in `read`.
                return DirAction::Nak { to: requester };
            }
            DirState::Modified(owner) => return self.intervene(owner, requester, true),
            DirState::Uncached => SharerSet::EMPTY,
            DirState::Shared(set) => set,
            // MOESI write to a dirty-shared block: memory is fresh (the
            // retained copyback refreshed it), so this is an invalidation
            // round over owner + sharers, not an ownership transfer.
            DirState::Owned { owner, mut sharers } => {
                sharers.insert(owner);
                sharers
            }
        };
        // A writer already holding a copy (the owner upgrading, too) needs
        // no invalidation of its own.
        targets.remove(requester);
        self.grant_or_invalidate(requester, targets)
    }

    /// When the last ack arrives, the waiting writer gets its grant and
    /// the parked requests replay. The caller has refused acks with no
    /// round to count.
    fn inval_ack(&mut self) -> Step {
        match self.busy {
            Some(Busy::Inval { writer, acks_left: 1 }) => {
                self.busy = None;
                (Some(self.grant(writer)), true)
            }
            Some(Busy::Inval { writer, acks_left }) => {
                self.busy = Some(Busy::Inval { writer, acks_left: acks_left - 1 });
                (None, false)
            }
            _ => unreachable!("HomeDirectory::handle refuses stray acks"),
        }
    }

    fn copyback(&mut self, from: NodeId, carried: SharerSet, retained: bool) -> Step {
        // An O owner re-serving a read must not wipe its sharers.
        let prior = self.sharers_beside(from);
        match self.busy {
            Some(Busy::CtoC { owner, requester, write_intent }) if owner == from => {
                self.busy = None;
                if write_intent && carried.is_empty() {
                    // Ownership transfer completed owner -> requester. The
                    // bumped seq matches the one `serve_intervention` stamped
                    // on the CtoCData grant (intervened seq + 1), which
                    // already carried the grant: no home reply.
                    self.grant(requester);
                    return (None, true);
                }
                // Read intervention completed (or a switch-initiated read
                // CtoC completed while we were waiting): memory is fresh;
                // the owner downgraded to Shared — or, MOESI, kept OWNED.
                let mut set = SharerSet::singleton(owner).union(carried).union(prior);
                let mut sharers = carried.union(prior);
                if write_intent {
                    // Our waiting transaction was a write but the owner
                    // serviced a read CtoC first: everyone now sharing must
                    // be invalidated before the writer gets ownership.
                    sharers.remove(from);
                    self.state = if retained {
                        DirState::Owned { owner: from, sharers }
                    } else {
                        DirState::Shared(set)
                    };
                    set.remove(requester);
                    let act = self.grant_or_invalidate(requester, set);
                    return (Some(act), self.busy.is_none());
                }
                self.state = if retained {
                    sharers.insert(requester);
                    sharers.remove(from);
                    DirState::Owned { owner: from, sharers }
                } else {
                    set.insert(requester);
                    DirState::Shared(set)
                };
                (Some(DirAction::ReadReplyClean { to: requester }), true)
            }
            // Unsolicited: a switch-directory-initiated CtoC. The block
            // must be recorded with `from` as owner; fold in carried
            // sharers (and keep the owner OWNED when it retained).
            _ => match self.state {
                DirState::Modified(owner) if owner == from => {
                    self.state = if retained {
                        DirState::Owned { owner: from, sharers: carried }
                    } else {
                        DirState::Shared(SharerSet::singleton(from).union(carried))
                    };
                    (None, true)
                }
                DirState::Owned { owner, sharers } if owner == from => {
                    // An O owner re-served another reader through a
                    // switch; it stays owner either way.
                    self.state = DirState::Owned { owner: from, sharers: sharers.union(carried) };
                    (None, true)
                }
                _ => {
                    // Stale copyback (transaction already resolved by a
                    // racing writeback). Memory write is harmless; fold
                    // carried sharers if the state is Shared.
                    if let DirState::Shared(set) = self.state {
                        self.state = DirState::Shared(set.union(carried));
                    }
                    (None, false)
                }
            },
        }
    }

    fn writeback(&mut self, from: NodeId, carried: SharerSet) -> Step {
        let prior = self.sharers_beside(from);
        match self.busy {
            Some(Busy::CtoC { owner, requester, write_intent }) if owner == from => {
                // Eviction race: the owner wrote back before our intervention
                // reached it. Serve the waiting requester from memory.
                self.busy = None;
                if write_intent {
                    let targets = carried.union(prior);
                    self.state = DirState::Shared(targets);
                    let act = self.grant_or_invalidate(requester, targets);
                    return (Some(act), self.busy.is_none());
                }
                let set = SharerSet::singleton(requester).union(carried).union(prior);
                self.state = DirState::Shared(set);
                (Some(DirAction::ReadReplyClean { to: requester }), true)
            }
            _ => match self.state {
                // The owner evicted; an O owner's sharers keep their clean
                // copies (memory already has the data).
                DirState::Modified(owner) | DirState::Owned { owner, .. } if owner == from => {
                    self.state = shared_or_uncached(prior.union(carried));
                    (None, true)
                }
                // Stale writeback (e.g. the block was already taken over by
                // another writer after a read-CtoC downgrade made the
                // evicting cache a mere sharer). Ignore.
                _ => (None, false),
            },
        }
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
    /// Full-map lookups performed (every handled request consults the map
    /// once). The difference against total reads shows the lookups a
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

    /// Counts what one handled request did.
    fn count(&mut self, req: Request, action: Option<DirAction>) {
        match action {
            Some(DirAction::ReadReplyClean { .. } | DirAction::ReadReplyExcl { .. })
                if matches!(req, Request::Read { .. }) =>
            {
                // A completion's ReadReplyClean answers an intervention,
                // already counted in `reads_ctoc`.
                self.reads_clean += 1;
            }
            Some(DirAction::ForwardCtoC { write_intent: false, .. }) => self.reads_ctoc += 1,
            Some(DirAction::ForwardCtoC { write_intent: true, .. }) => self.writes_ctoc += 1,
            Some(DirAction::Invalidate { targets, .. }) => {
                self.inval_rounds += 1;
                self.invals_sent += targets.len() as u64;
            }
            Some(DirAction::Nak { .. }) => self.naks += 1,
            Some(DirAction::Queued) => self.queued += 1,
            _ => {}
        }
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

/// A protocol invariant violation the directory recorded instead of
/// corrupting state. Bounds violations (a node id at or past the machine
/// size) and impossible FSM transitions land here in release builds —
/// the old `debug_assert!`s vanished in release and let a bad id silently
/// wrap into the sharer vector. The simulator drains these into
/// `ExecutionReport::sim_errors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirError {
    /// Which request kind / invariant tripped (e.g. `"dir_read_bounds"`).
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

impl HomeDirectory {
    /// Creates the directory of one home in a `nodes`-node machine running
    /// `protocol`, parking at most `pending_limit` requests per busy
    /// block. Requests naming ids `>= nodes` are rejected with a recorded
    /// [`DirError`] instead of corrupting the sharer vector.
    pub fn new(pending_limit: usize, nodes: usize, protocol: Protocol) -> Self {
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

    /// Checks `req`'s node ids against the machine size, recording a
    /// [`DirError`] for each bad one. `None` refuses the request;
    /// otherwise it comes back with out-of-range carried pids dropped.
    fn check(&mut self, req: Request) -> Option<Request> {
        let ok = match req {
            Request::Read { requester } => self.node_ok("dir_read_bounds", requester),
            Request::Write { requester } => self.node_ok("dir_write_bounds", requester),
            Request::InvalAck => true,
            Request::CopyBack { from, carried, retained } => {
                if !self.node_ok("dir_copyback_bounds", from) {
                    return None;
                }
                let carried = self.sanitize_carried("dir_copyback_carried_bounds", carried);
                return Some(Request::CopyBack { from, carried, retained });
            }
            Request::WriteBack { from, carried } => {
                if !self.node_ok("dir_writeback_bounds", from) {
                    return None;
                }
                let carried = self.sanitize_carried("dir_writeback_carried_bounds", carried);
                return Some(Request::WriteBack { from, carried });
            }
        };
        ok.then_some(req)
    }

    /// Handles one request for `block`: the only way to change protocol
    /// state. Counts the full-map lookup, runs the FSM and folds the
    /// block's occupancy change into the peaks. A completion that ends the
    /// block's transaction hands its parked requests back in
    /// [`Outcome::replay`].
    pub fn handle(&mut self, block: BlockAddr, req: Request) -> Outcome {
        self.stats.lookups += 1;
        let Some(req) = self.check(req) else {
            // A request from no node is NAK'd; a completion from no node
            // is dropped. Either leaves the block as it was.
            let action = match req {
                Request::Read { requester } | Request::Write { requester } => {
                    Some(DirAction::Nak { to: requester })
                }
                _ => None,
            };
            self.stats.count(req, action);
            let state = self.fsm_state(block);
            return Outcome { action, replay: VecDeque::new(), from: state, to: state };
        };
        if let Request::CopyBack { carried, .. } | Request::WriteBack { carried, .. } = req {
            if !carried.is_empty() {
                self.stats.marked_completions += 1;
            }
        }
        let e = self.blocks.entry(block).or_insert_with(BlockEntry::stable_uncached);
        // Acks with no round to count are recorded, in release builds too,
        // not dropped silently. A round is never left with zero acks
        // outstanding, so an ack finding one is duplicated or forged.
        let stray_ack = match (req, e.busy) {
            (Request::InvalAck, Some(Busy::Inval { acks_left: 0, .. })) => {
                Some(("dir_inval_ack_underflow", "with zero acks outstanding"))
            }
            (Request::InvalAck, Some(Busy::CtoC { .. }) | None) => {
                Some(("dir_inval_ack_stray", "with no inval round in flight"))
            }
            _ => None,
        };
        let from = e.fsm_state();
        if let Some((context, why)) = stray_ack {
            self.record_error(context, format!("InvalAck for {block:?} {why}"));
            return Outcome { from, to: from, ..Outcome::default() };
        }
        let before = (e.busy.is_some(), e.pending.len());
        let (action, release) = e.step(req, self.pending_limit, self.protocol);
        let replay = if release { std::mem::take(&mut e.pending) } else { VecDeque::new() };
        let to = e.fsm_state();
        let after = (e.busy.is_some(), e.pending.len());
        self.busy_now = self.busy_now + after.0 as u64 - before.0 as u64;
        self.pending_now = self.pending_now + after.1 as u64 - before.1 as u64;
        self.stats.peak_busy = self.stats.peak_busy.max(self.busy_now);
        self.stats.peak_pending = self.stats.peak_pending.max(self.pending_now);
        self.stats.count(req, action);
        Outcome { action, replay, from, to }
    }

    /// Current stable state of a block (`Uncached` if never touched).
    /// Busy blocks report their pre-transaction stable state.
    pub fn state(&self, block: BlockAddr) -> DirState {
        self.blocks.get(&block).map(|e| e.state).unwrap_or(DirState::Uncached)
    }

    /// Whether a transaction is in flight for the block.
    pub fn is_busy(&self, block: BlockAddr) -> bool {
        self.blocks.get(&block).is_some_and(|e| e.busy.is_some())
    }

    /// Iterates every tracked block with its stable state and whether a
    /// transaction is mid-flight. Order is arbitrary (hash map); callers
    /// needing determinism must sort.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockAddr, DirState, bool)> + '_ {
        self.blocks.iter().map(|(&b, e)| (b, e.state, e.busy.is_some()))
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

    /// A block's stable-state kind and whether a transaction is in flight:
    /// the two halves of each end of a [`HomeTransition`].
    ///
    /// [`HomeTransition`]: dresar_obs::HomeTransition
    pub fn fsm_state(&self, block: BlockAddr) -> (DirStateKind, bool) {
        self.blocks.get(&block).map_or((DirStateKind::Uncached, false), BlockEntry::fsm_state)
    }

    /// Drops quiescent entries to bound memory in long runs.
    pub fn compact(&mut self) {
        self.blocks.retain(|_, e| !e.is_quiescent());
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

    fn msi() -> HomeDirectory {
        HomeDirectory::new(8, 16, Protocol::Msi)
    }

    /// The outcome of a request that asks for no action and replays
    /// nothing, moving the block `from` one FSM state `to` another.
    fn quiet(from: (DirStateKind, bool), to: (DirStateKind, bool)) -> Outcome {
        Outcome { from, to, ..Outcome::default() }
    }

    /// Handles a read or write request, which never hands back a queue.
    fn request(d: &mut HomeDirectory, b: BlockAddr, req: Request) -> DirAction {
        let out = d.handle(b, req);
        assert!(out.replay.is_empty());
        out.action.expect("every request gets an action")
    }

    fn read(d: &mut HomeDirectory, b: BlockAddr, requester: NodeId) -> DirAction {
        request(d, b, Request::Read { requester })
    }

    fn write(d: &mut HomeDirectory, b: BlockAddr, requester: NodeId) -> DirAction {
        request(d, b, Request::Write { requester })
    }

    fn ack(d: &mut HomeDirectory, b: BlockAddr) -> Outcome {
        d.handle(b, Request::InvalAck)
    }

    fn copyback(
        d: &mut HomeDirectory,
        b: BlockAddr,
        from: NodeId,
        carried: SharerSet,
        retained: bool,
    ) -> Outcome {
        d.handle(b, Request::CopyBack { from, carried, retained })
    }

    fn writeback(d: &mut HomeDirectory, b: BlockAddr, from: NodeId, carried: SharerSet) -> Outcome {
        d.handle(b, Request::WriteBack { from, carried })
    }

    #[test]
    fn cold_read_is_clean_and_records_sharer() {
        let mut d = msi();
        assert_eq!(read(&mut d, B, 3), DirAction::ReadReplyClean { to: 3 });
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(3)));
        assert_eq!(d.stats().reads_clean, 1);
    }

    #[test]
    fn shared_read_accumulates_sharers() {
        let mut d = msi();
        read(&mut d, B, 1);
        read(&mut d, B, 2);
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
        let mut d = msi();
        assert_eq!(write(&mut d, B, 5), DirAction::WriteReplyGrant { to: 5, seq: 1 });
        assert_eq!(d.state(B), DirState::Modified(5));
    }

    #[test]
    fn write_to_shared_invalidates_then_grants() {
        let mut d = msi();
        read(&mut d, B, 1);
        read(&mut d, B, 2);
        let act = write(&mut d, B, 3);
        let expected: SharerSet = [1u8, 2].into_iter().collect();
        assert_eq!(act, DirAction::Invalidate { targets: expected, writer: 3 });
        assert!(d.is_busy(B));
        // First ack: still waiting.
        let busy_shared = (DirStateKind::Shared, true);
        assert_eq!(ack(&mut d, B), quiet(busy_shared, busy_shared));
        // Second ack: grant.
        let c = ack(&mut d, B);
        assert_eq!(c.action, Some(DirAction::WriteReplyGrant { to: 3, seq: 1 }));
        assert_eq!(d.state(B), DirState::Modified(3));
        assert!(!d.is_busy(B));
    }

    #[test]
    fn writer_already_sharing_skips_self_invalidation() {
        let mut d = msi();
        read(&mut d, B, 1);
        // Upgrade by the only sharer: immediate grant.
        assert_eq!(write(&mut d, B, 1), DirAction::WriteReplyGrant { to: 1, seq: 1 });
        assert_eq!(d.state(B), DirState::Modified(1));
    }

    #[test]
    fn read_to_modified_forwards_ctoc_and_copyback_completes() {
        let mut d = msi();
        write(&mut d, B, 7);
        let act = read(&mut d, B, 2);
        assert_eq!(
            act,
            DirAction::ForwardCtoC { owner: 7, requester: 2, write_intent: false, owner_seq: 1 }
        );
        assert_eq!(d.stats().reads_ctoc, 1);
        let c = copyback(&mut d, B, 7, SharerSet::EMPTY, false);
        assert_eq!(c.action, Some(DirAction::ReadReplyClean { to: 2 }));
        let expected: SharerSet = [2u8, 7].into_iter().collect();
        assert_eq!(d.state(B), DirState::Shared(expected));
    }

    #[test]
    fn write_to_modified_transfers_ownership() {
        let mut d = msi();
        write(&mut d, B, 7);
        let act = write(&mut d, B, 2);
        assert_eq!(
            act,
            DirAction::ForwardCtoC { owner: 7, requester: 2, write_intent: true, owner_seq: 1 }
        );
        let c = copyback(&mut d, B, 7, SharerSet::EMPTY, false);
        assert!(c.action.is_none(), "ownership transfer needs no home reply");
        assert_eq!(d.state(B), DirState::Modified(2));
    }

    #[test]
    fn requests_during_busy_are_queued_and_replayed() {
        let mut d = msi();
        write(&mut d, B, 7);
        read(&mut d, B, 1); // busy: CtoC
        assert_eq!(read(&mut d, B, 2), DirAction::Queued);
        assert_eq!(write(&mut d, B, 3), DirAction::Queued);
        let c = copyback(&mut d, B, 7, SharerSet::EMPTY, false);
        assert_eq!(c.replay, [Request::Read { requester: 2 }, Request::Write { requester: 3 }]);
    }

    #[test]
    fn pending_queue_overflow_naks() {
        let mut d = HomeDirectory::new(2, 16, Protocol::Msi);
        write(&mut d, B, 7);
        read(&mut d, B, 1); // busy
        assert_eq!(read(&mut d, B, 2), DirAction::Queued);
        assert_eq!(read(&mut d, B, 3), DirAction::Queued);
        assert_eq!(read(&mut d, B, 4), DirAction::Nak { to: 4 });
        assert_eq!(d.stats().naks, 1);
    }

    #[test]
    fn writeback_race_naks_the_owner_request() {
        let mut d = msi();
        write(&mut d, B, 7);
        // Owner 7 asks again while the directory still names it owner:
        // only possible when its writeback is in flight.
        assert_eq!(read(&mut d, B, 7), DirAction::Nak { to: 7 });
        assert_eq!(write(&mut d, B, 7), DirAction::Nak { to: 7 });
        // Writeback lands; retries now succeed.
        writeback(&mut d, B, 7, SharerSet::EMPTY);
        assert_eq!(d.state(B), DirState::Uncached);
        assert_eq!(read(&mut d, B, 7), DirAction::ReadReplyClean { to: 7 });
    }

    #[test]
    fn eviction_race_during_read_ctoc_serves_requester_from_memory() {
        let mut d = msi();
        write(&mut d, B, 7);
        read(&mut d, B, 2); // busy CtoC to owner 7
                            // Owner evicts before the intervention arrives.
        let c = writeback(&mut d, B, 7, SharerSet::EMPTY);
        assert_eq!(c.action, Some(DirAction::ReadReplyClean { to: 2 }));
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(2)));
    }

    #[test]
    fn eviction_race_during_write_ctoc_grants_from_memory() {
        let mut d = msi();
        write(&mut d, B, 7);
        write(&mut d, B, 2); // busy CtoC (write intent)
        let c = writeback(&mut d, B, 7, SharerSet::EMPTY);
        assert_eq!(c.action, Some(DirAction::WriteReplyGrant { to: 2, seq: 2 }));
        assert_eq!(d.state(B), DirState::Modified(2));
    }

    #[test]
    fn marked_copyback_installs_switch_served_sharers() {
        let mut d = msi();
        write(&mut d, B, 7);
        // Switch directory served requester 4 directly; owner's copyback is
        // marked with pid 4 and arrives unsolicited.
        let c = copyback(&mut d, B, 7, SharerSet::singleton(4), false);
        assert!(c.action.is_none());
        let expected: SharerSet = [4u8, 7].into_iter().collect();
        assert_eq!(d.state(B), DirState::Shared(expected));
        assert_eq!(d.stats().marked_completions, 1);
    }

    #[test]
    fn marked_writeback_installs_switch_served_sharers() {
        let mut d = msi();
        write(&mut d, B, 7);
        // The switch replied to requester 4 from the writeback's data.
        let c = writeback(&mut d, B, 7, SharerSet::singleton(4));
        assert!(c.action.is_none());
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(4)));
    }

    #[test]
    fn copyback_while_write_busy_triggers_invalidation_round() {
        let mut d = msi();
        write(&mut d, B, 7);
        write(&mut d, B, 2); // home wants ownership moved to 2
                             // But a switch-initiated *read* CtoC completed first: owner 7 copies
                             // back marked with new sharer 4. Sharers {7,4} must be invalidated
                             // before 2 can own the block.
        let c = copyback(&mut d, B, 7, SharerSet::singleton(4), false);
        let expected: SharerSet = [4u8, 7].into_iter().collect();
        assert_eq!(c.action, Some(DirAction::Invalidate { targets: expected, writer: 2 }));
        ack(&mut d, B);
        let c = ack(&mut d, B);
        assert_eq!(c.action, Some(DirAction::WriteReplyGrant { to: 2, seq: 2 }));
        assert_eq!(d.state(B), DirState::Modified(2));
    }

    #[test]
    fn stale_writeback_is_ignored() {
        let mut d = msi();
        read(&mut d, B, 1);
        // Writeback from a node that is not the owner: dropped.
        let c = writeback(&mut d, B, 9, SharerSet::EMPTY);
        let shared = (DirStateKind::Shared, false);
        assert_eq!(c, quiet(shared, shared));
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(1)));
    }

    #[test]
    fn lookups_and_occupancy_peaks_tracked() {
        let mut d = msi();
        write(&mut d, B, 7); // lookup 1
        read(&mut d, B, 2); // lookup 2: busy CtoC (busy_now = 1)
        write(&mut d, BlockAddr(43), 5); // lookup 3
        write(&mut d, BlockAddr(43), 6); // lookup 4: busy CtoC (busy_now = 2)
        read(&mut d, B, 3); // lookup 5: parked (pending_now = 1)
        assert_eq!(d.stats().lookups, 5);
        assert_eq!(d.stats().peak_busy, 2);
        assert_eq!(d.stats().peak_pending, 1);
        // Completions drain the occupancy but peaks persist.
        copyback(&mut d, B, 7, SharerSet::EMPTY, false);
        copyback(&mut d, BlockAddr(43), 5, SharerSet::EMPTY, false);
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
        let mut d = msi();
        assert_eq!(read(&mut d, B, 200), DirAction::Nak { to: 200 });
        assert_eq!(write(&mut d, B, 16), DirAction::Nak { to: 16 });
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
        let mut d = msi();
        write(&mut d, B, 7);
        let carried: SharerSet = [4u8, 40].into_iter().collect();
        copyback(&mut d, B, 7, carried, false);
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
        let mut d = msi();
        write(&mut d, B, 7);
        let modified = (DirStateKind::Modified, false);
        assert_eq!(writeback(&mut d, B, 99, SharerSet::EMPTY), quiet(modified, modified));
        assert_eq!(d.state(B), DirState::Modified(7));
        assert_eq!(d.take_errors()[0].context, "dir_writeback_bounds");
    }

    #[test]
    fn stray_inval_ack_is_recorded_not_asserted() {
        let mut d = msi();
        assert_eq!(ack(&mut d, B), Outcome::default());
        let errs = d.take_errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].context, "dir_inval_ack_stray");
    }

    #[test]
    fn compact_drops_quiescent_blocks() {
        let mut d = msi();
        write(&mut d, B, 7);
        writeback(&mut d, B, 7, SharerSet::EMPTY);
        assert_eq!(d.state(B), DirState::Uncached);
        assert!(d.tracked_blocks() > 0);
        d.compact();
        assert_eq!(d.tracked_blocks(), 0);
    }

    #[test]
    fn mesi_cold_read_grants_exclusive_and_books_owner() {
        let mut d = HomeDirectory::new(8, 16, Protocol::Mesi);
        assert_eq!(read(&mut d, B, 3), DirAction::ReadReplyExcl { to: 3, seq: 1 });
        // Booked as ownership: a later reader goes through an intervention.
        assert_eq!(d.state(B), DirState::Modified(3));
        assert_eq!(d.stats().reads_clean, 1);
        assert_eq!(
            read(&mut d, B, 5),
            DirAction::ForwardCtoC { owner: 3, requester: 5, write_intent: false, owner_seq: 1 }
        );
        // Under MSI the same cold read stays a plain shared fill.
        let mut msi = msi();
        assert_eq!(read(&mut msi, B, 3), DirAction::ReadReplyClean { to: 3 });
        assert_eq!(msi.state(B), DirState::Shared(SharerSet::singleton(3)));
    }

    #[test]
    fn dls_read_to_modified_bypasses_the_intervention() {
        let mut d = HomeDirectory::new(8, 16, Protocol::Dls);
        write(&mut d, B, 7);
        // The directoryless baseline serves the read from memory: no busy
        // state, no forwarded intervention, owner still booked.
        assert_eq!(read(&mut d, B, 2), DirAction::ReadReplyClean { to: 2 });
        assert_eq!(d.state(B), DirState::Modified(7));
        assert!(!d.is_busy(B));
        assert_eq!(d.stats().reads_ctoc, 0);
        assert_eq!(d.stats().reads_clean, 1);
        // The owner's own writeback race still NAKs.
        assert_eq!(read(&mut d, B, 7), DirAction::Nak { to: 7 });
    }

    #[test]
    fn moesi_retained_copyback_enters_owned_and_owner_keeps_serving() {
        let mut d = HomeDirectory::new(8, 16, Protocol::Moesi);
        write(&mut d, B, 7);
        read(&mut d, B, 2); // ForwardCtoC to 7
        let c = copyback(&mut d, B, 7, SharerSet::EMPTY, true);
        assert_eq!(c.action, Some(DirAction::ReadReplyClean { to: 2 }));
        assert_eq!(d.state(B), DirState::Owned { owner: 7, sharers: SharerSet::singleton(2) });
        // Next read is again owner-supplied, and the retained copyback
        // accumulates the new sharer without losing the old one.
        assert_eq!(
            read(&mut d, B, 4),
            DirAction::ForwardCtoC { owner: 7, requester: 4, write_intent: false, owner_seq: 1 }
        );
        assert_eq!(d.stats().reads_ctoc, 2);
        copyback(&mut d, B, 7, SharerSet::EMPTY, true);
        let expected: SharerSet = [2u8, 4].into_iter().collect();
        assert_eq!(d.state(B), DirState::Owned { owner: 7, sharers: expected });
    }

    #[test]
    fn moesi_write_to_owned_invalidates_owner_and_sharers() {
        let mut d = HomeDirectory::new(8, 16, Protocol::Moesi);
        write(&mut d, B, 7);
        read(&mut d, B, 2);
        copyback(&mut d, B, 7, SharerSet::EMPTY, true); // Owned{7, {2}}
        let act = write(&mut d, B, 3);
        let expected: SharerSet = [2u8, 7].into_iter().collect();
        assert_eq!(act, DirAction::Invalidate { targets: expected, writer: 3 });
        ack(&mut d, B);
        let c = ack(&mut d, B);
        assert_eq!(c.action, Some(DirAction::WriteReplyGrant { to: 3, seq: 2 }));
        assert_eq!(d.state(B), DirState::Modified(3));
    }

    #[test]
    fn moesi_owner_upgrade_skips_self_invalidation() {
        let mut d = HomeDirectory::new(8, 16, Protocol::Moesi);
        write(&mut d, B, 7);
        read(&mut d, B, 2);
        copyback(&mut d, B, 7, SharerSet::EMPTY, true); // Owned{7, {2}}
                                                        // The owner upgrading only invalidates the sharer, not itself.
        assert_eq!(
            write(&mut d, B, 7),
            DirAction::Invalidate { targets: SharerSet::singleton(2), writer: 7 }
        );
        let c = ack(&mut d, B);
        assert_eq!(c.action, Some(DirAction::WriteReplyGrant { to: 7, seq: 2 }));
        assert_eq!(d.state(B), DirState::Modified(7));
    }

    #[test]
    fn moesi_owner_writeback_leaves_sharers_clean() {
        let mut d = HomeDirectory::new(8, 16, Protocol::Moesi);
        write(&mut d, B, 7);
        read(&mut d, B, 2);
        copyback(&mut d, B, 7, SharerSet::EMPTY, true); // Owned{7, {2}}
        let c = writeback(&mut d, B, 7, SharerSet::EMPTY);
        assert_eq!(c, quiet((DirStateKind::Owned, false), (DirStateKind::Shared, false)));
        assert_eq!(d.state(B), DirState::Shared(SharerSet::singleton(2)));
    }

    #[test]
    fn moesi_eviction_race_during_owned_read_merges_prior_sharers() {
        let mut d = HomeDirectory::new(8, 16, Protocol::Moesi);
        write(&mut d, B, 7);
        read(&mut d, B, 2);
        copyback(&mut d, B, 7, SharerSet::EMPTY, true); // Owned{7, {2}}
        read(&mut d, B, 4); // busy CtoC to owner 7
                            // Owner evicts before the intervention lands: requester is served
                            // from memory and sharer 2's copy survives.
        let c = writeback(&mut d, B, 7, SharerSet::EMPTY);
        assert_eq!(c.action, Some(DirAction::ReadReplyClean { to: 4 }));
        let expected: SharerSet = [2u8, 4].into_iter().collect();
        assert_eq!(d.state(B), DirState::Shared(expected));
    }
}
