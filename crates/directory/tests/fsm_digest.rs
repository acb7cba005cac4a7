//! Pins the home-directory FSM of every protocol in one digest each.
//!
//! A seeded driver sends one `HomeDirectory` per protocol a long sequence
//! of requests over three blocks of an 8-node machine. Most are
//! well-formed: reads and writes from real nodes, the copyback or
//! writeback each forwarded intervention asks for, one ack per sent
//! invalidation, and unsolicited marked completions from the booked owner
//! (the switch-directory protocol's). The rest are forged: out-of-range
//! requesters, senders and carried pids, stray and duplicated inval-acks,
//! and completions from nodes that own nothing. Parked requests are
//! handled again in queue order as soon as a completion hands them back,
//! as the simulators do.
//!
//! Every returned action and replayed request is hashed (FNV-1a), and so
//! are `state()`, `fsm_state()`, `stats()`, the occupancy counts and
//! `take_errors()` after each step. A refactor of the directory must keep
//! the four digests; only `drive` and `directory` below may change with
//! its entry points.

use dresar_directory::{DirAction, DirState, DirStats, HomeDirectory, Request};
use dresar_obs::DirStateKind;
use dresar_types::{BlockAddr, NodeId, Protocol, SharerSet};

const NODES: usize = 8;
const PENDING_LIMIT: usize = 2;
const BLOCKS: [BlockAddr; 3] = [BlockAddr(0), BlockAddr(1), BlockAddr(0x5a5)];
const STEPS: usize = 6000;
const SEED: u64 = 0x00d1_2ec7_0123;

/// One arrival at the home, in the test's own words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read(NodeId),
    Write(NodeId),
    InvalAck,
    CopyBack { from: NodeId, carried: SharerSet, retained: bool },
    WriteBack { from: NodeId, carried: SharerSet },
}

// ---- driver: the only lines that name the directory's entry points ----

fn directory(protocol: Protocol) -> HomeDirectory {
    HomeDirectory::new(PENDING_LIMIT, NODES, protocol)
}

/// Handles `op` at `block`: the actions to perform and the parked
/// requests handed back for replay, in queue order. The transition the
/// outcome reports must be `fsm_state` read before and after, on every
/// path, refused requesters and stray acks included.
fn drive(d: &mut HomeDirectory, block: BlockAddr, op: Op) -> (Vec<DirAction>, Vec<Op>) {
    let req = match op {
        Op::Read(requester) => Request::Read { requester },
        Op::Write(requester) => Request::Write { requester },
        Op::InvalAck => Request::InvalAck,
        Op::CopyBack { from, carried, retained } => Request::CopyBack { from, carried, retained },
        Op::WriteBack { from, carried } => Request::WriteBack { from, carried },
    };
    let before = d.fsm_state(block);
    let out = d.handle(block, req);
    assert_eq!(out.from, before, "{op:?} at {block:?}: state before");
    assert_eq!(out.to, d.fsm_state(block), "{op:?} at {block:?}: state after");
    let replay = out
        .replay
        .into_iter()
        .map(|r| match r {
            Request::Read { requester } => Op::Read(requester),
            Request::Write { requester } => Op::Write(requester),
            other => panic!("only reads and writes are parked, not {other:?}"),
        })
        .collect();
    (out.action.into_iter().collect(), replay)
}

// ---- hashing ----

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    fn all(&mut self, xs: &[u64]) {
        for &x in xs {
            self.u64(x);
        }
    }

    fn set(&mut self, s: SharerSet) {
        self.all(&s.words());
    }

    fn op(&mut self, op: Op) {
        match op {
            Op::Read(p) => self.all(&[1, p.into()]),
            Op::Write(p) => self.all(&[2, p.into()]),
            Op::InvalAck => self.u64(3),
            Op::CopyBack { from, carried, retained } => {
                self.all(&[4, from.into(), retained.into()]);
                self.set(carried);
            }
            Op::WriteBack { from, carried } => {
                self.all(&[5, from.into()]);
                self.set(carried);
            }
        }
    }

    fn action(&mut self, a: DirAction) {
        match a {
            DirAction::ReadReplyClean { to } => self.all(&[10, to.into()]),
            DirAction::ReadReplyExcl { to, seq } => self.all(&[11, to.into(), seq]),
            DirAction::WriteReplyGrant { to, seq } => self.all(&[12, to.into(), seq]),
            DirAction::ForwardCtoC { owner, requester, write_intent, owner_seq } => {
                self.all(&[13, owner.into(), requester.into(), write_intent.into(), owner_seq]);
            }
            DirAction::Invalidate { targets, writer } => {
                self.all(&[14, writer.into()]);
                self.set(targets);
            }
            DirAction::Nak { to } => self.all(&[15, to.into()]),
            DirAction::Queued => self.u64(16),
        }
    }

    fn state(&mut self, s: DirState) {
        match s {
            DirState::Uncached => self.u64(20),
            DirState::Shared(set) => {
                self.u64(21);
                self.set(set);
            }
            DirState::Modified(o) => self.all(&[22, o.into()]),
            DirState::Owned { owner, sharers } => {
                self.all(&[23, owner.into()]);
                self.set(sharers);
            }
        }
    }

    fn stats(&mut self, s: DirStats) {
        let DirStats {
            reads_clean,
            reads_ctoc,
            writes_ctoc,
            inval_rounds,
            invals_sent,
            naks,
            queued,
            marked_completions,
            lookups,
            peak_busy,
            peak_pending,
        } = s;
        self.all(&[
            reads_clean,
            reads_ctoc,
            writes_ctoc,
            inval_rounds,
            invals_sent,
            naks,
            queued,
            marked_completions,
            lookups,
            peak_busy,
            peak_pending,
        ]);
    }

    /// Everything observable about `d` after a step.
    fn snapshot(&mut self, d: &mut HomeDirectory) {
        for b in BLOCKS {
            self.state(d.state(b));
            let (kind, busy) = d.fsm_state(b);
            let k = match kind {
                DirStateKind::Uncached => 0,
                DirStateKind::Shared => 1,
                DirStateKind::Modified => 2,
                DirStateKind::Owned => 3,
            };
            self.all(&[k, busy.into()]);
        }
        self.stats(d.stats());
        self.all(&[d.busy_now(), d.pending_now()]);
        for e in d.take_errors() {
            self.str(e.context);
            self.str(&e.detail);
        }
    }
}

// ---- the seeded request generator ----

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // SplitMix64.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    fn node(&mut self) -> NodeId {
        self.below(NODES) as NodeId
    }

    /// A node id outside the machine.
    fn forged_node(&mut self) -> NodeId {
        (NODES + self.below(256 - NODES)) as NodeId
    }

    /// Usually empty; otherwise one or two real nodes, rarely a forged one.
    fn carried(&mut self) -> SharerSet {
        let mut s = SharerSet::EMPTY;
        if self.chance(30) {
            for _ in 0..1 + self.below(2) {
                s.insert(self.node());
            }
            if self.chance(10) {
                s.insert(self.forged_node());
            }
        }
        s
    }
}

/// A reply the directory is owed for a block.
#[derive(Debug, Clone, Copy)]
enum Owed {
    /// The intervened owner's copyback (or its racing writeback).
    Completion { owner: NodeId },
    /// One invalidation ack.
    Ack,
}

fn next_op(
    rng: &mut Rng,
    d: &HomeDirectory,
    owed: &mut Vec<(BlockAddr, Owed)>,
    moesi: bool,
) -> (BlockAddr, Op) {
    let block = BLOCKS[rng.below(BLOCKS.len())];
    let roll = rng.below(100);
    if roll < 30 {
        let p = if rng.chance(3) { rng.forged_node() } else { rng.node() };
        return (block, Op::Read(p));
    }
    if roll < 55 {
        let p = if rng.chance(3) { rng.forged_node() } else { rng.node() };
        return (block, Op::Write(p));
    }
    if roll < 85 && !owed.is_empty() {
        let (b, o) = owed.swap_remove(rng.below(owed.len()));
        let op = match o {
            Owed::Ack => Op::InvalAck,
            Owed::Completion { owner } if rng.chance(25) => {
                Op::WriteBack { from: owner, carried: rng.carried() }
            }
            Owed::Completion { owner } => Op::CopyBack {
                from: owner,
                carried: rng.carried(),
                retained: moesi && rng.chance(50),
            },
        };
        return (b, op);
    }
    if roll < 93 {
        // An unsolicited completion from the booked owner: a copyback a
        // switch directory started, or a dirty eviction.
        let owner = match d.state(block) {
            DirState::Modified(o) | DirState::Owned { owner: o, .. } => o,
            _ => rng.node(),
        };
        let op = if rng.chance(50) {
            Op::CopyBack { from: owner, carried: rng.carried(), retained: moesi && rng.chance(50) }
        } else {
            Op::WriteBack { from: owner, carried: rng.carried() }
        };
        return (block, op);
    }
    // Forged arrivals.
    let op = match rng.below(5) {
        0 => Op::InvalAck,
        1 => Op::WriteBack { from: rng.node(), carried: rng.carried() },
        2 => Op::WriteBack { from: rng.forged_node(), carried: rng.carried() },
        3 => Op::CopyBack { from: rng.forged_node(), carried: rng.carried(), retained: false },
        _ => {
            let mut carried = rng.carried();
            carried.insert(rng.forged_node());
            Op::CopyBack { from: rng.node(), carried, retained: moesi && rng.chance(50) }
        }
    };
    (block, op)
}

/// Records what each action obliges the rest of the machine to send back.
fn owe(owed: &mut Vec<(BlockAddr, Owed)>, block: BlockAddr, a: DirAction) {
    match a {
        DirAction::ForwardCtoC { owner, .. } => owed.push((block, Owed::Completion { owner })),
        DirAction::Invalidate { targets, .. } => {
            owed.extend(targets.iter().map(|_| (block, Owed::Ack)));
        }
        _ => {}
    }
}

fn digest(protocol: Protocol) -> u64 {
    let mut d = directory(protocol);
    let mut rng = Rng(SEED ^ protocol as u64);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut owed = Vec::new();
    for _ in 0..STEPS {
        let (block, op) = next_op(&mut rng, &d, &mut owed, protocol == Protocol::Moesi);
        h.op(op);
        let (actions, replay) = drive(&mut d, block, op);
        for &a in &actions {
            h.action(a);
            owe(&mut owed, block, a);
        }
        for &r in &replay {
            h.op(r);
        }
        h.snapshot(&mut d);
        for r in replay {
            let (actions, again) = drive(&mut d, block, r);
            assert!(again.is_empty(), "a replayed request never hands back a queue");
            for a in actions {
                h.action(a);
                owe(&mut owed, block, a);
            }
            h.snapshot(&mut d);
        }
    }
    h.0
}

#[test]
fn fsm_digest_is_pinned_per_protocol() {
    let got: Vec<(Protocol, u64)> = Protocol::ALL.iter().map(|&p| (p, digest(p))).collect();
    let want = [
        (Protocol::Msi, 0x711f_f68a_ec28_4aea),
        (Protocol::Mesi, 0x111a_1285_0cee_9faa),
        (Protocol::Moesi, 0x742a_3c1f_498f_1775),
        (Protocol::Dls, 0xc3e2_9d90_42c8_2c1d),
    ];
    assert_eq!(got, want, "home-directory FSM digests moved");
}

#[test]
fn driver_reaches_every_outcome() {
    // The digest only pins what the driver reaches: make sure that is
    // every action, every stable state and every recorded error kind.
    let mut seen_actions = [false; 7];
    let mut seen_states = [false; 4];
    let mut contexts = std::collections::BTreeSet::new();
    for protocol in Protocol::ALL {
        let mut d = directory(protocol);
        let mut rng = Rng(SEED ^ protocol as u64);
        let mut owed = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for _ in 0..STEPS {
            queue.push_back(next_op(&mut rng, &d, &mut owed, protocol == Protocol::Moesi));
            while let Some((block, op)) = queue.pop_front() {
                let (actions, replay) = drive(&mut d, block, op);
                for a in actions {
                    seen_actions[match a {
                        DirAction::ReadReplyClean { .. } => 0,
                        DirAction::ReadReplyExcl { .. } => 1,
                        DirAction::WriteReplyGrant { .. } => 2,
                        DirAction::ForwardCtoC { .. } => 3,
                        DirAction::Invalidate { .. } => 4,
                        DirAction::Nak { .. } => 5,
                        DirAction::Queued => 6,
                    }] = true;
                    owe(&mut owed, block, a);
                }
                queue.extend(replay.into_iter().map(|r| (block, r)));
                for b in BLOCKS {
                    seen_states[d.fsm_state(b).0 as usize] = true;
                }
                contexts.extend(d.take_errors().into_iter().map(|e| e.context));
            }
        }
    }
    assert_eq!(seen_actions, [true; 7]);
    assert_eq!(seen_states, [true; 4]);
    let want = [
        "dir_copyback_bounds",
        "dir_copyback_carried_bounds",
        "dir_inval_ack_stray",
        "dir_read_bounds",
        "dir_write_bounds",
        "dir_writeback_bounds",
        "dir_writeback_carried_bounds",
    ];
    assert_eq!(contexts.into_iter().collect::<Vec<_>>(), want);
}
