//! Per-node processor state: stream execution, MSHRs, write buffer.

use dresar_cache::CacheHierarchy;
use dresar_stats::ReadStats;
use dresar_types::{BlockAddr, Cycle, FastMap, NodeId, StreamItem};

/// What the processor core is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Executing its stream.
    Ready,
    /// Blocked on a read to the given block.
    WaitRead(BlockAddr),
    /// Blocked because the write buffer is full.
    WaitWriteBuffer,
    /// Draining the write buffer before entering a barrier (a barrier is a
    /// release point: all prior stores must complete first).
    DrainForBarrier(u32),
    /// Waiting at a barrier.
    AtBarrier(u32),
    /// Stream drained.
    Done,
}

/// Kind of outstanding transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrKind {
    /// Read (blocks the processor).
    Read,
    /// Write / ownership (retires through the write buffer).
    Write,
}

/// A CtoC intervention that reached the (future) owner before its
/// ownership grant did. Message retransmission can reorder the home's
/// `WriteReply` past the intervention it sends for the *next* writer; the
/// grantee must serve the intervention once its fill lands — NAKing would
/// leave the home busy waiting for a copyback nobody is going to send.
#[derive(Debug, Clone, Copy)]
pub struct DeferredIntervention {
    /// Processor the data (or ownership) goes to.
    pub requester: NodeId,
    /// Ownership transfer (write-triggered) rather than a downgrade.
    pub write_intent: bool,
    /// The intervention came from a switch directory.
    pub switch_generated: bool,
    /// Original issue cycle, carried for latency accounting.
    pub issued_at: Cycle,
    /// Transaction id of the requester's miss, carried so the deferred
    /// reply joins the same causal tree as the intervention that seeded it.
    pub txn: u64,
    /// Sequence of the ownership instance the home intervened. Replay
    /// serves only if the fill installed exactly that instance — otherwise
    /// the home cancelled the transaction while the intervention was in
    /// flight (a retransmitted zombie) and serving it would hand ownership
    /// to a node the home no longer tracks.
    pub owner_seq: u64,
}

/// A miss-status holding register: one outstanding transaction per block.
#[derive(Debug, Clone, Copy)]
pub struct Mshr {
    /// Read or write.
    pub kind: MshrKind,
    /// Cycle the transaction was first issued (latency accounting).
    pub issued_at: Cycle,
    /// Transaction id: stable across retries and coalesced upgrades, stamped
    /// on every message sent on this miss's behalf.
    pub txn: u64,
    /// A write arrived while a read was outstanding: upgrade ownership as
    /// soon as the read data lands.
    pub then_write: bool,
    /// An invalidation arrived while the fill was in flight: fill, let the
    /// blocked read consume the data once, then invalidate.
    pub inval_pending: bool,
    /// A retry event is already scheduled (debounces NAK storms).
    pub retry_pending: bool,
    /// An intervention overtook the ownership grant: serve it after the
    /// fill (only ever set on `MshrKind::Write`).
    pub deferred_ctoc: Option<DeferredIntervention>,
}

/// One node's processor-side state. The reference stream is borrowed from
/// the [`dresar_types::Workload`] the system runs, never copied.
#[derive(Debug)]
pub struct Node<'w> {
    /// Node id.
    pub id: NodeId,
    /// L1/L2 hierarchy.
    pub hier: CacheHierarchy,
    /// The reference stream.
    pub items: &'w [StreamItem],
    /// Next stream index.
    pub pc: usize,
    /// Core state.
    pub state: ProcState,
    /// Outstanding transactions by block.
    pub mshrs: FastMap<BlockAddr, Mshr>,
    /// Sequence number of the ownership instance last installed Modified,
    /// per block (from the grant's `owner_seq`). Consulted only while the
    /// line is dirty, to validate incoming interventions; stale entries for
    /// relinquished blocks are harmless and overwritten by the next grant.
    pub owner_seq: FastMap<BlockAddr, u64>,
    /// Outstanding write transactions (write-buffer occupancy).
    pub writes_inflight: u32,
    /// Read statistics for this node.
    pub reads: ReadStats,
    /// Cycle the current read stall began.
    pub stall_since: Cycle,
    /// The node's local notion of time: the cycle up to which its stream
    /// has executed.
    pub local_time: Cycle,
    /// Memory references executed.
    pub refs_executed: u64,
}

impl<'w> Node<'w> {
    /// Creates a node executing `items`.
    pub fn new(id: NodeId, hier: CacheHierarchy, items: &'w [StreamItem]) -> Self {
        Node {
            id,
            hier,
            items,
            pc: 0,
            state: ProcState::Ready,
            mshrs: FastMap::default(),
            owner_seq: FastMap::default(),
            writes_inflight: 0,
            reads: ReadStats::default(),
            stall_since: 0,
            local_time: 0,
            refs_executed: 0,
        }
    }

    /// Whether the node has fully drained (stream done, no transactions).
    pub fn drained(&self) -> bool {
        self.state == ProcState::Done && self.mshrs.is_empty()
    }
}
