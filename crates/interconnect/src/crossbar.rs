//! Cycle-accurate crossbar switch model (paper §4.1, Figure 5).
//!
//! The switch has input blocks with per-virtual-channel FIFO buffers,
//! age-based arbitration ("at each arbitration cycle, a maximum of 4
//! highest age flits are selected from 8 possible candidates", after the
//! SGI SPIDER), wormhole output locking (a head flit reserves its output
//! until the tail passes) and a fixed core traversal delay.
//!
//! The model is deliberately free-standing: `dresar-bench` uses it for the
//! DRESAR cycle-budget microbenchmarks, and [`crate::flit_net`] composes it
//! into whole networks to cross-check the hop-level model.

use dresar_types::Cycle;
use std::collections::VecDeque;

/// One flit of a wormhole message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Message the flit belongs to.
    pub msg: u64,
    /// First flit of the message (carries the header).
    pub head: bool,
    /// Last flit of the message (releases the output lock).
    pub tail: bool,
    /// Injection cycle of the message — the "age" used for arbitration
    /// priority (older wins).
    pub age: Cycle,
    /// Output port this flit requests at the current switch.
    pub out_port: u8,
}

#[derive(Debug, Clone, Default)]
struct Vc {
    fifo: VecDeque<Flit>,
}

#[derive(Debug, Clone)]
struct InputBlock {
    vcs: Vec<Vc>,
}

#[derive(Debug, Clone, Copy, Default)]
struct OutputLock {
    holder: Option<(u16, u16)>, // (input, vc)
}

/// Arbitration outcome counters kept by every [`Crossbar`].
///
/// `conflicts` counts candidates that lost an arbitration cycle to an older
/// flit (the SPIDER age-based preemption); `lock_blocked` counts candidates
/// turned away by a wormhole output lock; `offers_refused` counts flits an
/// upstream sender had to hold because the VC FIFO was full (credit
/// backpressure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Flits granted passage through the switch core.
    pub grants: u64,
    /// Candidates skipped because their input or output was already granted
    /// this cycle to an older flit.
    pub conflicts: u64,
    /// Candidates ineligible because of a wormhole output lock (a head flit
    /// facing a locked output, or a body flit whose lock is not yet placed).
    pub lock_blocked: u64,
    /// Flits refused at [`Crossbar::offer`] because the VC FIFO was full.
    pub offers_refused: u64,
}

impl ArbiterStats {
    /// Accumulates `other` into `self` (for summing across switches).
    pub fn merge(&mut self, other: &ArbiterStats) {
        self.grants += other.grants;
        self.conflicts += other.conflicts;
        self.lock_blocked += other.lock_blocked;
        self.offers_refused += other.offers_refused;
    }
}

/// A flit leaving the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exit {
    /// Output port the flit leaves on.
    pub out_port: u8,
    /// Cycle the flit is available at the output transmitter (grant cycle
    /// plus the core delay).
    pub at: Cycle,
    /// The flit itself.
    pub flit: Flit,
}

/// The crossbar switch.
#[derive(Debug, Clone)]
pub struct Crossbar {
    inputs: Vec<InputBlock>,
    locks: Vec<OutputLock>,
    buffer_flits: usize,
    core_cycles: Cycle,
    stats: ArbiterStats,
    /// Arbitration candidate scratch, reused across [`Crossbar::step`]
    /// calls so the per-cycle inner loop allocates nothing.
    cands: Vec<(Cycle, u16, u16, Flit)>,
}

impl Crossbar {
    /// Creates a switch with `n_in` input links x `vcs` virtual channels,
    /// `n_out` outputs, per-VC FIFO capacity `buffer_flits`, and a core
    /// delay of `core_cycles`.
    pub fn new(
        n_in: usize,
        n_out: usize,
        vcs: usize,
        buffer_flits: usize,
        core_cycles: u32,
    ) -> Self {
        assert!(n_in > 0 && n_out > 0 && vcs > 0 && buffer_flits > 0);
        // The grant trackers below are u64 bitmasks (one bit per port).
        assert!(n_in <= 64 && n_out <= 64, "crossbar ports limited to 64");
        Crossbar {
            inputs: vec![InputBlock { vcs: vec![Vc::default(); vcs] }; n_in],
            locks: vec![OutputLock::default(); n_out],
            buffer_flits,
            core_cycles: core_cycles as Cycle,
            stats: ArbiterStats::default(),
            cands: Vec::new(),
        }
    }

    /// Free FIFO slots on `(input, vc)` — the credit count an upstream
    /// sender checks before transmitting.
    pub fn free_space(&self, input: usize, vc: usize) -> usize {
        self.buffer_flits - self.inputs[input].vcs[vc].fifo.len()
    }

    /// Offers a flit to an input VC. Returns `false` (flit not accepted)
    /// when the FIFO is full.
    pub fn offer(&mut self, input: usize, vc: usize, flit: Flit) -> bool {
        let fifo = &mut self.inputs[input].vcs[vc].fifo;
        if fifo.len() >= self.buffer_flits {
            self.stats.offers_refused += 1;
            return false;
        }
        fifo.push_back(flit);
        true
    }

    /// Whether any flit is buffered.
    pub fn is_idle(&self) -> bool {
        self.inputs.iter().all(|i| i.vcs.iter().all(|v| v.fifo.is_empty()))
    }

    /// Arbitration outcome counters.
    pub fn stats(&self) -> &ArbiterStats {
        &self.stats
    }

    /// Runs one arbitration cycle at time `now`; returns the flits that
    /// leave the switch (at `now + core_cycles`).
    ///
    /// Rules, per the paper's SPIDER-style arbiter:
    /// * candidates are the head-of-FIFO flits of every (input, VC);
    /// * a *head* flit is eligible only for an unlocked output; a body
    ///   flit only for the output its message already locked;
    /// * at most one flit per input and one per output is granted per
    ///   cycle, oldest age first (ties broken by input then VC index — a
    ///   fixed priority that keeps the model deterministic);
    /// * a granted head flit locks its output; a granted tail releases it.
    pub fn step(&mut self, now: Cycle) -> Vec<Exit> {
        let mut exits = Vec::new();
        self.step_into(now, &mut exits);
        exits
    }

    /// [`Crossbar::step`] appending into a caller-owned buffer, so a
    /// network stepping many switches every cycle reuses one allocation.
    /// The buffer is *not* cleared: exits append after existing contents.
    pub fn step_into(&mut self, now: Cycle, exits: &mut Vec<Exit>) {
        // Gather candidates (age, input, vc, flit) into the reusable
        // scratch; fast-out when the switch is idle.
        self.cands.clear();
        for (i, ib) in self.inputs.iter().enumerate() {
            for (v, vc) in ib.vcs.iter().enumerate() {
                if let Some(&f) = vc.fifo.front() {
                    self.cands.push((f.age, i as u16, v as u16, f));
                }
            }
        }
        if self.cands.is_empty() {
            return;
        }
        self.cands.sort_unstable_by_key(|&(age, i, v, _)| (age, i, v));

        // One grant per input and per output, tracked branch-free in
        // per-port bitmasks (ports are bounded to 64 at construction).
        let mut out_used = 0u64;
        let mut in_used = 0u64;

        for c in 0..self.cands.len() {
            let (_, i, v, f) = self.cands[c];
            let o = f.out_port as usize;
            debug_assert!(o < self.locks.len(), "flit requests nonexistent output");
            if (in_used >> i) & 1 != 0 || (out_used >> o) & 1 != 0 {
                self.stats.conflicts += 1;
                continue;
            }
            let eligible = match self.locks[o].holder {
                None => f.head,
                Some(h) => h == (i, v) && !f.head,
            };
            if !eligible {
                self.stats.lock_blocked += 1;
                continue;
            }
            // Grant.
            in_used |= 1 << i;
            out_used |= 1 << o;
            let flit = self.inputs[i as usize].vcs[v as usize].fifo.pop_front().expect("candidate");
            if flit.head && !flit.tail {
                self.locks[o].holder = Some((i, v));
            }
            if flit.tail {
                self.locks[o].holder = None;
            }
            self.stats.grants += 1;
            exits.push(Exit { out_port: f.out_port, at: now + self.core_cycles, flit });
        }
    }
}

/// Splits a message into `n` flits for injection.
pub fn flits_of_message(msg: u64, n: u32, age: Cycle, out_port: u8) -> Vec<Flit> {
    assert!(n >= 1);
    (0..n).map(|i| Flit { msg, head: i == 0, tail: i == n - 1, age, out_port }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_switch() -> Crossbar {
        // 8x8 bidirectional: 8 link inputs x 2 VCs, 8 outputs, 4-flit
        // buffers, 4-cycle core.
        Crossbar::new(8, 8, 2, 4, 4)
    }

    #[test]
    fn single_flit_passes_with_core_delay() {
        let mut x = paper_switch();
        let f = Flit { msg: 1, head: true, tail: true, age: 0, out_port: 3 };
        assert!(x.offer(0, 0, f));
        let exits = x.step(10);
        assert_eq!(exits, vec![Exit { out_port: 3, at: 14, flit: f }]);
        assert!(x.is_idle());
    }

    #[test]
    fn buffer_capacity_enforced() {
        let mut x = paper_switch();
        let f = Flit { msg: 1, head: true, tail: false, age: 0, out_port: 0 };
        for _ in 0..4 {
            assert!(x.offer(0, 0, f));
        }
        assert!(!x.offer(0, 0, f), "fifth flit must be refused");
        assert_eq!(x.free_space(0, 0), 0);
        assert_eq!(x.free_space(0, 1), 4);
    }

    #[test]
    fn age_priority_wins_output_conflict() {
        let mut x = paper_switch();
        let young = Flit { msg: 1, head: true, tail: true, age: 9, out_port: 0 };
        let old = Flit { msg: 2, head: true, tail: true, age: 3, out_port: 0 };
        x.offer(0, 0, young);
        x.offer(1, 0, old);
        let exits = x.step(10);
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].flit.msg, 2, "older flit granted first");
        let exits = x.step(11);
        assert_eq!(exits[0].flit.msg, 1);
    }

    #[test]
    fn wormhole_locks_output_until_tail() {
        let mut x = paper_switch();
        // 3-flit message from input 0 to output 5.
        for f in flits_of_message(7, 3, 0, 5) {
            x.offer(0, 0, f);
        }
        // Competing head from input 1 (younger).
        x.offer(1, 0, Flit { msg: 8, head: true, tail: true, age: 1, out_port: 5 });
        let e = x.step(0);
        assert_eq!(e.len(), 1);
        assert!(e[0].flit.head && e[0].flit.msg == 7);
        // Body flits keep the output; msg 8 stays blocked.
        let e = x.step(1);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].flit.msg, 7);
        let e = x.step(2);
        assert_eq!(e[0].flit.msg, 7);
        assert!(e[0].flit.tail);
        // Tail released the lock: msg 8 goes now.
        let e = x.step(3);
        assert_eq!(e[0].flit.msg, 8);
    }

    #[test]
    fn distinct_outputs_move_in_parallel() {
        let mut x = paper_switch();
        for (i, o) in [(0usize, 0u8), (1, 1), (2, 2), (3, 3)] {
            x.offer(i, 0, Flit { msg: i as u64, head: true, tail: true, age: 0, out_port: o });
        }
        let e = x.step(0);
        assert_eq!(e.len(), 4, "four flits granted in one cycle");
    }

    #[test]
    fn one_flit_per_input_per_cycle() {
        let mut x = paper_switch();
        // Two single-flit messages on different VCs of the same input,
        // different outputs: input bandwidth limits to one grant.
        x.offer(0, 0, Flit { msg: 1, head: true, tail: true, age: 0, out_port: 0 });
        x.offer(0, 1, Flit { msg: 2, head: true, tail: true, age: 0, out_port: 1 });
        assert_eq!(x.step(0).len(), 1);
        assert_eq!(x.step(1).len(), 1);
    }

    #[test]
    fn blocked_message_does_not_block_other_vc() {
        let mut x = paper_switch();
        // msg 1 (older) grabs output 0 and stalls mid-message (only its
        // head offered so far).
        x.offer(0, 0, Flit { msg: 1, head: true, tail: false, age: 0, out_port: 0 });
        x.step(0);
        // msg 2 on the other VC of the same input heads elsewhere: passes.
        x.offer(0, 1, Flit { msg: 2, head: true, tail: true, age: 5, out_port: 3 });
        let e = x.step(1);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].flit.msg, 2);
    }

    #[test]
    fn arbiter_stats_count_outcomes() {
        let mut x = paper_switch();
        // Age conflict: two heads for the same output, same cycle.
        x.offer(0, 0, Flit { msg: 1, head: true, tail: true, age: 0, out_port: 0 });
        x.offer(1, 0, Flit { msg: 2, head: true, tail: true, age: 5, out_port: 0 });
        x.step(0);
        assert_eq!(x.stats().grants, 1);
        assert_eq!(x.stats().conflicts, 1, "younger flit lost the arbitration");
        // Wormhole lock block: a stalled multi-flit message holds output 3.
        x.step(1); // drain msg 2
        x.offer(2, 0, Flit { msg: 3, head: true, tail: false, age: 0, out_port: 3 });
        x.step(2);
        x.offer(3, 0, Flit { msg: 4, head: true, tail: true, age: 9, out_port: 3 });
        x.step(3);
        assert_eq!(x.stats().lock_blocked, 1, "head blocked by foreign lock");
        // FIFO-full refusal.
        let f = Flit { msg: 5, head: true, tail: false, age: 0, out_port: 1 };
        for _ in 0..4 {
            assert!(x.offer(4, 0, f));
        }
        assert!(!x.offer(4, 0, f));
        assert_eq!(x.stats().offers_refused, 1);
        // Merge sums fields.
        let mut total = ArbiterStats::default();
        total.merge(x.stats());
        total.merge(x.stats());
        assert_eq!(total.grants, 2 * x.stats().grants);
    }

    #[test]
    fn flits_of_message_marks_head_and_tail() {
        let fs = flits_of_message(9, 5, 2, 1);
        assert_eq!(fs.len(), 5);
        assert!(fs[0].head && !fs[0].tail);
        assert!(fs[4].tail && !fs[4].head);
        assert!(fs[1..4].iter().all(|f| !f.head && !f.tail));
        let single = flits_of_message(9, 1, 2, 1);
        assert!(single[0].head && single[0].tail);
    }
}
