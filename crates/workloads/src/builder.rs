//! The stream-recording substrate the kernels run on.
//!
//! A [`StreamRecorder`] plays the role of the shared address space: kernels
//! perform their real computation on whatever Rust data they like, and call
//! [`StreamRecorder::read`]/[`StreamRecorder::write`] with the *simulated*
//! byte address of every shared-array element they touch. Barriers are
//! stamped into every processor's stream so the simulator can align phases.

use dresar_types::{Addr, StreamItem, Workload};

/// Records per-processor reference streams while a kernel executes.
#[derive(Debug)]
pub struct StreamRecorder {
    streams: Vec<Vec<StreamItem>>,
    next_barrier: u32,
    /// Default instruction-work attached to each reference.
    work: u32,
}

impl StreamRecorder {
    /// Creates a recorder for `processors` streams with `work` non-memory
    /// instructions charged per reference (converted to cycles by the
    /// simulated core's issue width).
    pub fn new(processors: usize, work: u32) -> Self {
        assert!(processors >= 1);
        StreamRecorder { streams: vec![Vec::new(); processors], next_barrier: 0, work }
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.streams.len()
    }

    /// Records a load by processor `p` at simulated address `addr`.
    #[inline]
    pub fn read(&mut self, p: usize, addr: Addr) {
        self.streams[p].push(StreamItem::read(addr, self.work));
    }

    /// Records a store by processor `p` at simulated address `addr`.
    #[inline]
    pub fn write(&mut self, p: usize, addr: Addr) {
        self.streams[p].push(StreamItem::write(addr, self.work));
    }

    /// Records a load with explicit work.
    #[inline]
    pub fn read_w(&mut self, p: usize, addr: Addr, work: u32) {
        self.streams[p].push(StreamItem::read(addr, work));
    }

    /// Records a store with explicit work.
    #[inline]
    pub fn write_w(&mut self, p: usize, addr: Addr, work: u32) {
        self.streams[p].push(StreamItem::write(addr, work));
    }

    /// Stamps a global barrier into every stream.
    pub fn barrier(&mut self) {
        let id = self.next_barrier;
        self.next_barrier += 1;
        for s in &mut self.streams {
            s.push(StreamItem::barrier(id));
        }
    }

    /// Stamps a barrier *with its memory traffic*: a sense-reversing
    /// barrier is shared-memory code, and on a real machine its arrival
    /// counter is migratory (every processor read-modify-writes it) and
    /// its release flag is written by the last arriver and read by
    /// everyone else — a substantial share of the dirty cache-to-cache
    /// transfers the paper measures for the pivot-broadcast kernels.
    ///
    /// `sync_base` is the address of the kernel's barrier data; two
    /// cache-block-aligned generations alternate (sense reversal).
    pub fn sync_barrier(&mut self, sync_base: Addr) {
        let procs = self.streams.len();
        let generation = (self.next_barrier % 2) as Addr;
        let counter = sync_base + generation * 256;
        let flag = counter + 64;
        let releaser = self.next_barrier as usize % procs;
        for p in 0..procs {
            // Arrive: atomically bump the counter.
            self.read_w(p, counter, 2);
            self.write_w(p, counter, 2);
        }
        // The last arriver flips the release flag...
        self.write_w(releaser, flag, 2);
        self.barrier();
        // ...and every spinning processor reads the fresh flag value.
        for p in 0..procs {
            if p != releaser {
                self.read_w(p, flag, 2);
            }
        }
    }

    /// Finishes recording, handing each stream over with no spare
    /// capacity.
    pub fn into_workload(self, name: impl Into<String>) -> Workload {
        let mut streams = self.streams;
        for s in &mut streams {
            s.shrink_to_fit();
        }
        let w = Workload { name: name.into(), streams };
        debug_assert!(w.validate().is_ok());
        w
    }
}

/// Block-contiguous partition of `n` items over `procs` processors:
/// processor `p` owns `[start, end)`.
pub fn partition(n: usize, procs: usize, p: usize) -> (usize, usize) {
    let base = n / procs;
    let extra = n % procs;
    let start = p * base + p.min(extra);
    let len = base + usize::from(p < extra);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_refs_and_barriers() {
        let mut r = StreamRecorder::new(2, 3);
        r.read(0, 100);
        r.barrier();
        r.write(1, 200);
        let w = r.into_workload("t");
        assert!(w.validate().is_ok());
        assert_eq!(w.total_refs(), 2);
        assert_eq!(w.streams[0].len(), 2); // read + barrier
        assert_eq!(w.streams[1].len(), 2); // barrier + write
    }

    #[test]
    fn partition_covers_everything_disjointly() {
        for n in [1usize, 7, 16, 100, 129] {
            for procs in [1usize, 2, 3, 16] {
                let mut covered = vec![false; n];
                for p in 0..procs {
                    let (s, e) = partition(n, procs, p);
                    for c in covered.iter_mut().take(e).skip(s) {
                        assert!(!*c, "overlap in partition({n}, {procs}, {p})");
                        *c = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n} procs={procs}");
            }
        }
    }

    #[test]
    fn partition_is_balanced() {
        for p in 0..16 {
            let (s, e) = partition(128, 16, p);
            assert_eq!(e - s, 8);
        }
        // Remainders spread over the first processors.
        let sizes: Vec<usize> = (0..3)
            .map(|p| {
                let (s, e) = partition(10, 3, p);
                e - s
            })
            .collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }
}
