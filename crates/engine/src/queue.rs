//! Deterministic time-ordered event queue: a calendar of one-cycle
//! buckets for near events and a heap for far ones.
//!
//! Almost every event is scheduled a few cycles ahead (a hop, a snoop, a
//! DRAM access), so the queue files each event due less than `RING` = 1024
//! cycles from now in that cycle's FIFO bucket, and only the rare far event
//! (a long link or home backlog, a fault backoff) in a binary heap. Delivery
//! order is exactly `(time, seq)`: see [`EventQueue`] for the invariant that
//! keeps it so.

use dresar_types::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Width of the near window in cycles: one bucket per cycle. Events due
/// `RING` or more cycles ahead wait in the far heap. Under 2 % of the
/// benchmark's events are that far ahead (sor256's link and home
/// backlogs), so a wider ring would buy little and cost memory.
const RING: usize = 1024;

/// Words in the occupied-bucket bitmap.
const WORDS: usize = RING / 64;

/// Far-heap entry: ordered by `(time, seq)` so that events scheduled
/// earlier (in program order) at the same cycle are delivered first.
#[derive(Debug)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Bucket index of cycle `time`.
#[inline]
fn slot(time: Cycle) -> usize {
    (time % RING as Cycle) as usize
}

/// A deterministic discrete-event queue.
///
/// The queue tracks the current simulation time ([`EventQueue::now`]);
/// popping an event advances time to that event's timestamp. Scheduling in
/// the past panics in debug builds (a scheduling bug would otherwise warp
/// causality silently).
///
/// Events are delivered in `(time, seq)` order, `seq` being the order of
/// scheduling. The window invariant keeps that exact: every pending event
/// due before `now + RING` sits in its cycle's bucket, and every later one
/// in the far heap. Whenever `pop` advances the clock it first moves the
/// heap events that came inside the window into their buckets, in
/// `(time, seq)` order. An event can go straight into bucket `t` only once
/// `t` is inside the window, after every heap event for `t` was moved
/// there, so each bucket holds its events in `seq` order.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `buckets[slot(t)]` holds the pending events due at cycle `t`, for
    /// `now <= t < now + RING`, in `seq` order.
    buckets: Box<[VecDeque<E>]>,
    /// Bit `i` is set iff `buckets[i]` is not empty.
    occupied: [u64; WORDS],
    /// Events in `buckets`.
    near: usize,
    /// Events due at `now + RING` or later.
    far: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Cycle,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at cycle 0.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..RING).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            near: 0,
            far: BinaryHeap::new(),
            seq: 0,
            now: 0,
            peak_len: 0,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedules `event` at absolute cycle `time`.
    pub fn schedule_at(&mut self, time: Cycle, event: E) {
        debug_assert!(time >= self.now, "scheduling into the past: {} < {}", time, self.now);
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        if time - self.now < RING as Cycle {
            self.push_near(time, event);
        } else {
            self.far.push(Reverse(Entry { time, seq, event }));
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the simulation has drained.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let time = if self.near > 0 { self.next_near_time() } else { self.far.peek()?.0.time };
        if time > self.now {
            self.now = time;
            self.pull_far();
        }
        let i = slot(time);
        let event = self.buckets[i].pop_front().expect("occupied bucket");
        if self.buckets[i].is_empty() {
            self.occupied[i / 64] &= !(1 << (i % 64));
        }
        self.near -= 1;
        Some((time, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (diagnostic; also the tie-break
    /// sequence counter).
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// High-water mark of pending events — the queue occupancy a sized
    /// hardware event list would have needed.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Appends `event` to the bucket of cycle `time`, which must lie inside
    /// the window.
    #[inline]
    fn push_near(&mut self, time: Cycle, event: E) {
        let i = slot(time);
        self.buckets[i].push_back(event);
        self.occupied[i / 64] |= 1 << (i % 64);
        self.near += 1;
    }

    /// Moves every far event now inside the window into its bucket, in
    /// `(time, seq)` order.
    fn pull_far(&mut self) {
        let horizon = self.now + RING as Cycle;
        while self.far.peek().is_some_and(|top| top.0.time < horizon) {
            let Reverse(Entry { time, event, .. }) = self.far.pop().expect("peeked");
            self.push_near(time, event);
        }
    }

    /// Cycle of the first occupied bucket at or after `now`; `near` must be
    /// non-zero.
    fn next_near_time(&self) -> Cycle {
        let start = slot(self.now);
        let (word, bit) = (start / 64, start % 64);
        // Scan forward from `start` around the ring, ending with the bits
        // below `start` in its own word.
        let mut bits = self.occupied[word] & (!0 << bit);
        let mut w = word;
        for step in 1..=WORDS {
            if bits != 0 {
                break;
            }
            w = (word + step) % WORDS;
            bits = self.occupied[w];
            if step == WORDS {
                bits &= (1 << bit) - 1;
            }
        }
        debug_assert!(bits != 0, "no occupied bucket with {} near events", self.near);
        let i = w * 64 + bits.trailing_zeros() as usize;
        self.now + ((i + RING - start) % RING) as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::rng::SmallRng;
    use std::collections::BTreeSet;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule_at(i, i);
        }
        q.pop();
        q.pop();
        q.schedule_at(10, 10);
        assert_eq!(q.peak_len(), 5, "peak is the historical maximum, not the current depth");
        assert_eq!(q.len(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(10, ());
        q.pop();
        q.schedule_at(5, ());
    }

    /// Interleaved schedules and pops deliver exactly in `(time, seq)`
    /// order, with `len()` and `peak_len()` exact after every step (seeded
    /// randomized sweep against a sorted reference). Delays reach 4 × 1024
    /// cycles and hit 1023, 1024 and 1025 exactly, and each seed schedules
    /// one shared cycle both while it is 1024 or more cycles ahead and once
    /// it is nearer, so a queue that files near and far events apart at
    /// 1024 cycles is checked at that boundary.
    #[test]
    fn time_monotone_and_complete_for_random_schedules() {
        const W: Cycle = 1024;
        let (mut shared_far, mut shared_near) = (0, 0);
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            // `(time, id)`, with ids handed out in scheduling order, sorts
            // exactly like the queue's `(time, seq)`.
            let mut reference = BTreeSet::new();
            let mut next_id = 0usize;
            let mut peak = 0;
            let shared = rng.gen_range(W + 1..3 * W);
            let steps = rng.gen_range(0usize..1500);
            for step in 0.. {
                let scheduling = step < steps && rng.gen_bool(0.55);
                if scheduling {
                    let now = q.now();
                    let time = match rng.gen_range(0u32..8) {
                        0 | 1 if shared >= now => {
                            if shared - now >= W {
                                shared_far += 1;
                            } else {
                                shared_near += 1;
                            }
                            shared
                        }
                        2 => now + [0, W - 1, W, W + 1][rng.gen_range(0usize..4)],
                        3 => now + rng.gen_range(0..4 * W + 1),
                        _ => now + rng.gen_range(0..64),
                    };
                    q.schedule_at(time, next_id);
                    reference.insert((time, next_id));
                    next_id += 1;
                    peak = peak.max(reference.len());
                } else {
                    let want = reference.pop_first();
                    assert_eq!(q.pop(), want, "seed {seed} step {step}");
                    if let Some((t, _)) = want {
                        assert_eq!(q.now(), t, "seed {seed} step {step}");
                    } else if step >= steps {
                        break;
                    }
                }
                assert_eq!(q.len(), reference.len(), "seed {seed} step {step}");
                assert_eq!(q.is_empty(), reference.is_empty(), "seed {seed} step {step}");
                assert_eq!(q.peak_len(), peak, "seed {seed} step {step}");
            }
            assert_eq!(q.scheduled_total(), next_id as u64, "seed {seed}");
        }
        assert!(shared_far > 0 && shared_near > 0, "far {shared_far}, near {shared_near}");
    }

    /// FIFO among events scheduled for the same cycle, at every batch size.
    #[test]
    fn fifo_within_cycle_at_every_size() {
        for n in 1usize..64 {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule_at(7, i);
            }
            let got: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(got, (0..n).collect::<Vec<_>>());
        }
    }
}
