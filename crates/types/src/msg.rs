//! Coherence message vocabulary.
//!
//! [`MsgType`] mirrors the paper's Table 1 (the message types relevant to the
//! switch directory) plus the ordinary messages every full-map MSI protocol
//! needs (clean-read replies, cache-to-cache data, invalidations and their
//! acknowledgments). [`Message`] is the envelope routed through the BMIN;
//! switch directories snoop it at every hop.

use crate::addr::{BlockAddr, NodeId};
use crate::sharers::SharerSet;
use crate::Cycle;

/// Where a message originates or terminates.
///
/// In the paper's BMIN (Figure 3) the processor/cache interfaces sit on one
/// side of the network and the memory/directory interfaces on the other, so
/// endpoints are either a processor-side or a memory-side attachment of a
/// node — or a switch, for messages generated *by* a switch directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The processor/cache interface of a node.
    Proc(NodeId),
    /// The memory/directory interface of a node.
    Mem(NodeId),
    /// A switch, identified by (stage, index within stage). Only ever a
    /// *source*: switch directories generate CtoC requests, replies and
    /// retries (paper §4.2, "CtoC & Reply Unit").
    Switch {
        /// Stage of the BMIN, 0 = adjacent to the processors.
        stage: u8,
        /// Index of the switch within its stage.
        index: u16,
    },
}

impl Endpoint {
    /// The node this endpoint belongs to, if it is a node interface.
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            Endpoint::Proc(n) | Endpoint::Mem(n) => Some(n),
            Endpoint::Switch { .. } => None,
        }
    }
}

/// The message types of the coherence protocol.
///
/// The first seven variants are exactly the paper's Table 1; the remainder
/// are the ordinary protocol messages the table omits because the switch
/// directory ignores them ("All other request types can be ignored since
/// they do not require switch directory processing", §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    // ---- Table 1: relevant to the switch directory -----------------------
    /// Load miss headed to a (possibly remote) home memory.
    ReadRequest,
    /// Store miss / ownership request headed to the home memory.
    WriteRequest,
    /// Ownership (plus data) reply servicing a write request. Installs
    /// switch-directory entries on its way back to the writer.
    WriteReply,
    /// Request forwarded to an owner cache when a block is found dirty —
    /// either by the home directory or by a switch directory hit.
    CtoCRequest,
    /// Data sent to the home node to make memory consistent after a
    /// cache-to-cache transfer (the owner also downgrades M -> S).
    CopyBack,
    /// Dirty-block eviction: data sent from a cache to the home memory.
    WriteBack,
    /// Negative acknowledgment telling the requester to retry later.
    Retry,
    // ---- Ordinary protocol messages (ignored by switch directories) ------
    /// Data reply for a read serviced clean from memory.
    ReadReply,
    /// Cache-to-cache data transfer from the owner to the requester.
    CtoCData,
    /// Invalidation of a shared copy (on behalf of a writer).
    Invalidate,
    /// Acknowledgment of an invalidation.
    InvalAck,
    /// Home acknowledges a writeback (lets the evicting cache retire it).
    WriteBackAck,
}

impl MsgType {
    /// Whether this message carries a full cache block of data. Determines
    /// its length in flits.
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            MsgType::WriteReply
                | MsgType::ReadReply
                | MsgType::CtoCData
                | MsgType::CopyBack
                | MsgType::WriteBack
        )
    }

    /// Whether the switch directory snoops this type at all (Table 1 set).
    pub fn switch_dir_relevant(self) -> bool {
        matches!(
            self,
            MsgType::ReadRequest
                | MsgType::WriteRequest
                | MsgType::WriteReply
                | MsgType::CtoCRequest
                | MsgType::CopyBack
                | MsgType::WriteBack
                | MsgType::Retry
        )
    }

    /// Whether this type travels the *forward* path (processor side toward
    /// memory side). Replies and coherence requests from memory to the
    /// processors travel the backward path (paper §3.1).
    pub fn forward_path(self) -> bool {
        matches!(
            self,
            MsgType::ReadRequest
                | MsgType::WriteRequest
                | MsgType::CopyBack
                | MsgType::WriteBack
                | MsgType::InvalAck
        )
    }

    /// Stable name, the inverse of [`MsgType::parse`].
    pub fn label(self) -> &'static str {
        match self {
            MsgType::ReadRequest => "ReadRequest",
            MsgType::WriteRequest => "WriteRequest",
            MsgType::WriteReply => "WriteReply",
            MsgType::CtoCRequest => "CtoCRequest",
            MsgType::CopyBack => "CopyBack",
            MsgType::WriteBack => "WriteBack",
            MsgType::Retry => "Retry",
            MsgType::ReadReply => "ReadReply",
            MsgType::CtoCData => "CtoCData",
            MsgType::Invalidate => "Invalidate",
            MsgType::InvalAck => "InvalAck",
            MsgType::WriteBackAck => "WriteBackAck",
        }
    }

    /// Parses a message-type name as produced by [`MsgType::label`] (used
    /// by the `--faults` plan parser).
    pub fn parse(name: &str) -> Option<MsgType> {
        Some(match name {
            "ReadRequest" => MsgType::ReadRequest,
            "WriteRequest" => MsgType::WriteRequest,
            "WriteReply" => MsgType::WriteReply,
            "CtoCRequest" => MsgType::CtoCRequest,
            "CopyBack" => MsgType::CopyBack,
            "WriteBack" => MsgType::WriteBack,
            "Retry" => MsgType::Retry,
            "ReadReply" => MsgType::ReadReply,
            "CtoCData" => MsgType::CtoCData,
            "Invalidate" => MsgType::Invalidate,
            "InvalAck" => MsgType::InvalAck,
            "WriteBackAck" => MsgType::WriteBackAck,
            _ => return None,
        })
    }
}

/// A coherence message in flight.
///
/// The `requester` field is the pid of the processor on whose behalf the
/// transaction runs; switch-generated messages set `switch_generated` — the
/// "single bit in the header flit" that lets cache and directory controllers
/// distinguish them (paper §3.2) — and marked copybacks/writebacks carry the
/// extra sharer pids for the home directory in `carried_sharers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Unique id (monotone per simulation), for tracing and determinism.
    pub id: u64,
    /// Protocol operation.
    pub kind: MsgType,
    /// Block the operation concerns.
    pub block: BlockAddr,
    /// Origin endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Processor on whose behalf the transaction runs.
    pub requester: NodeId,
    /// For CtoC requests: the owner the request is being sent to. For
    /// write replies: the new owner (same as `requester`).
    pub owner: Option<NodeId>,
    /// Set on messages generated or annotated by a switch directory.
    pub switch_generated: bool,
    /// On `CtoCRequest`/`CopyBack`: the intervention transfers *ownership*
    /// to the requester (it was triggered by a write), rather than
    /// downgrading the owner to Shared. Switch directories only ever
    /// generate read-intent interventions (they serve read requests).
    pub write_intent: bool,
    /// Sharer pids attached by switch directories to copyback/writeback
    /// messages so the home full-map vector stays exact (paper §3.2).
    pub carried_sharers: SharerSet,
    /// Cycle at which the *transaction* (not this hop) was issued; used for
    /// read-latency accounting.
    pub issued_at: Cycle,
    /// Ownership-instance sequence number, stamped by the home directory.
    /// On ownership grants (`WriteReply`, write-intent `CtoCData`): the
    /// sequence of the granted instance. On home-generated `CtoCRequest`s:
    /// the sequence of the ownership instance being intervened, letting the
    /// owner reject interventions for an instance it no longer (or does not
    /// yet) hold — message retransmission can deliver an intervention the
    /// home has since cancelled. Zero on all other messages.
    pub owner_seq: u64,
    /// Transaction id of the miss this message serves: a stable span id that
    /// follows the whole lifecycle (request, forwarded intervention, reply,
    /// retry) so observers can reconstruct one miss as a causal tree. Zero
    /// when the message serves no tracked transaction (e.g. evictions).
    pub txn: u64,
}

impl Message {
    /// Length of the message in 8-byte flits: one header flit, plus the
    /// cache block (32 bytes = 4 flits with the Table 2 geometry) for
    /// data-carrying messages.
    pub fn flits(&self, block_bytes: u64, flit_bytes: u64) -> u32 {
        let header = 1;
        if self.kind.carries_data() {
            header + (block_bytes.div_ceil(flit_bytes)) as u32
        } else {
            header
        }
    }
}

/// Builder-style constructor helpers keeping call sites terse.
impl Message {
    /// Creates a message with no owner, no carried sharers and the
    /// switch-generated bit clear.
    pub fn new(
        id: u64,
        kind: MsgType,
        block: BlockAddr,
        src: Endpoint,
        dst: Endpoint,
        requester: NodeId,
        issued_at: Cycle,
    ) -> Self {
        Message {
            id,
            kind,
            block,
            src,
            dst,
            requester,
            owner: None,
            switch_generated: false,
            write_intent: false,
            carried_sharers: SharerSet::EMPTY,
            issued_at,
            owner_seq: 0,
            txn: 0,
        }
    }

    /// Tags the message with the transaction id it serves.
    pub fn with_txn(mut self, txn: u64) -> Self {
        self.txn = txn;
        self
    }

    /// Sets the ownership-instance sequence number.
    pub fn with_owner_seq(mut self, seq: u64) -> Self {
        self.owner_seq = seq;
        self
    }

    /// Sets the write-intent flag.
    pub fn with_write_intent(mut self) -> Self {
        self.write_intent = true;
        self
    }

    /// Sets the owner field.
    pub fn with_owner(mut self, owner: NodeId) -> Self {
        self.owner = Some(owner);
        self
    }

    /// Marks the message as switch-generated.
    pub fn from_switch(mut self) -> Self {
        self.switch_generated = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(kind: MsgType) -> Message {
        Message::new(0, kind, BlockAddr(7), Endpoint::Proc(1), Endpoint::Mem(2), 1, 0)
    }

    #[test]
    fn data_messages_are_five_flits_with_table2_geometry() {
        for kind in [
            MsgType::WriteReply,
            MsgType::ReadReply,
            MsgType::CtoCData,
            MsgType::CopyBack,
            MsgType::WriteBack,
        ] {
            assert_eq!(msg(kind).flits(32, 8), 5, "{kind:?}");
        }
    }

    #[test]
    fn control_messages_are_one_flit() {
        for kind in [
            MsgType::ReadRequest,
            MsgType::WriteRequest,
            MsgType::CtoCRequest,
            MsgType::Retry,
            MsgType::Invalidate,
            MsgType::InvalAck,
            MsgType::WriteBackAck,
        ] {
            assert_eq!(msg(kind).flits(32, 8), 1, "{kind:?}");
        }
    }

    #[test]
    fn table1_set_is_switch_dir_relevant() {
        use MsgType::*;
        for kind in [ReadRequest, WriteRequest, WriteReply, CtoCRequest, CopyBack, WriteBack, Retry]
        {
            assert!(kind.switch_dir_relevant());
        }
        for kind in [ReadReply, CtoCData, Invalidate, InvalAck, WriteBackAck] {
            assert!(!kind.switch_dir_relevant());
        }
    }

    #[test]
    fn path_direction_matches_interface_sides() {
        use MsgType::*;
        // Processor -> memory messages take the forward path.
        for kind in [ReadRequest, WriteRequest, CopyBack, WriteBack, InvalAck] {
            assert!(kind.forward_path(), "{kind:?}");
        }
        // Memory -> processor (and switch -> processor) take the backward path.
        for kind in [WriteReply, ReadReply, CtoCRequest, CtoCData, Invalidate, Retry] {
            assert!(!kind.forward_path(), "{kind:?}");
        }
    }

    #[test]
    fn endpoint_node_extraction() {
        assert_eq!(Endpoint::Proc(3).node(), Some(3));
        assert_eq!(Endpoint::Mem(9).node(), Some(9));
        assert_eq!(Endpoint::Switch { stage: 1, index: 2 }.node(), None);
    }
}
