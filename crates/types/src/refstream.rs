//! Memory-reference streams.
//!
//! Workload generators (crate `dresar-workloads`) produce one stream per
//! simulated processor. A stream is a sequence of [`StreamItem`]s: memory
//! references annotated with the number of non-memory instructions executed
//! since the previous reference (so the processor model can account compute
//! time), interleaved with barrier markers for the scientific kernels'
//! phase structure.
//!
//! Each item is one packed 8-byte word, and
//! `StreamRecorder::into_workload` hands its streams over with no spare
//! capacity, so a workload holds 8 bytes per item and no more. A
//! [`Workload`] owns the streams; the simulators borrow them and read each
//! item through [`StreamItem::decode`].

use crate::addr::Addr;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefKind {
    /// A load; the processor blocks until data returns (reads determine
    /// stall time — paper §2).
    Read,
    /// A store; retired through the write buffer under release consistency,
    /// so it does not stall the processor.
    Write,
}

/// One memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Byte address referenced.
    pub addr: Addr,
    /// Load or store.
    pub kind: RefKind,
    /// Number of non-memory instructions executed since the previous item
    /// of this stream; converted to cycles by the processor's issue width.
    pub work: u32,
}

/// An item of a per-processor reference stream: a memory reference or a
/// global barrier, packed into one 8-byte word.
///
/// The streams are the largest data a run holds (sor256's 256 streams
/// carry 11.2M items), so each item is exactly one `u64`:
///
/// | bits  | reference     | barrier    |
/// |-------|---------------|------------|
/// | 0–31  | byte address  | barrier id |
/// | 32–47 | byte address  | 0          |
/// | 48–61 | `work`        | 0          |
/// | 62    | 1 for a store | 0          |
/// | 63    | 0             | 1          |
///
/// [`StreamItem::read`] and [`StreamItem::write`] panic on an address
/// above [`StreamItem::MAX_ADDR`] or a `work` above
/// [`StreamItem::MAX_WORK`]. Nothing needs more: the generators place
/// data at bases no higher than `0xE000_0000` and charge at most 30
/// instructions per reference.
/// [`StreamItem::decode`] returns the [`ItemView`] that readers match on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct StreamItem(u64);

const _: () = assert!(std::mem::size_of::<StreamItem>() == 8);

const WORK_SHIFT: u32 = 48;
const WRITE_BIT: u64 = 1 << 62;
const BARRIER_BIT: u64 = 1 << 63;

impl StreamItem {
    /// The highest byte address a reference can carry (48 bits).
    pub const MAX_ADDR: Addr = (1 << WORK_SHIFT) - 1;
    /// The highest `work` a reference can carry (14 bits).
    pub const MAX_WORK: u32 = (1 << 14) - 1;

    /// A load of `addr` after `work` non-memory instructions.
    ///
    /// # Panics
    /// If `addr` exceeds [`Self::MAX_ADDR`] or `work` exceeds
    /// [`Self::MAX_WORK`].
    #[inline]
    pub fn read(addr: Addr, work: u32) -> Self {
        Self::reference(addr, work, 0)
    }

    /// A store to `addr` after `work` non-memory instructions.
    ///
    /// # Panics
    /// As [`Self::read`].
    #[inline]
    pub fn write(addr: Addr, work: u32) -> Self {
        Self::reference(addr, work, WRITE_BIT)
    }

    /// A global barrier: the processor may not proceed past barrier `id`
    /// until every processor has reached it. Barrier ids are issued in
    /// ascending order within each stream.
    #[inline]
    pub fn barrier(id: u32) -> Self {
        StreamItem(BARRIER_BIT | id as u64)
    }

    #[inline]
    fn reference(addr: Addr, work: u32, kind: u64) -> Self {
        assert!(addr <= Self::MAX_ADDR, "stream address {addr:#x} exceeds {:#x}", Self::MAX_ADDR);
        assert!(work <= Self::MAX_WORK, "stream work {work} exceeds {}", Self::MAX_WORK);
        StreamItem(kind | ((work as u64) << WORK_SHIFT) | addr)
    }

    /// True for a barrier, false for a memory reference.
    #[inline]
    pub fn is_barrier(self) -> bool {
        self.0 & BARRIER_BIT != 0
    }

    /// Unpacks the item.
    #[inline]
    pub fn decode(self) -> ItemView {
        if self.is_barrier() {
            return ItemView::Barrier(self.0 as u32);
        }
        ItemView::Ref(MemRef {
            addr: self.0 & Self::MAX_ADDR,
            kind: if self.0 & WRITE_BIT != 0 { RefKind::Write } else { RefKind::Read },
            work: (self.0 >> WORK_SHIFT) as u32 & Self::MAX_WORK,
        })
    }
}

impl std::fmt::Debug for StreamItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.decode().fmt(f)
    }
}

/// A [`StreamItem`], unpacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemView {
    /// A memory reference.
    Ref(MemRef),
    /// A global barrier, by id.
    Barrier(u32),
}

/// A complete multiprocessor workload: one reference stream per processor.
///
/// Invariants (checked by [`Workload::validate`]):
/// * all streams see the same set of barrier ids in the same order;
/// * barrier ids ascend.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// A short human-readable name ("fft", "tpcc", ...).
    pub name: String,
    /// One stream per processor, indexed by pid.
    pub streams: Vec<Vec<StreamItem>>,
}

impl Workload {
    /// Total number of memory references across all streams.
    pub fn total_refs(&self) -> usize {
        self.streams.iter().map(|s| s.iter().filter(|i| !i.is_barrier()).count()).sum()
    }

    /// Checks the barrier invariants; returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        let barrier_seq = |s: &Vec<StreamItem>| -> Vec<u32> {
            s.iter()
                .filter_map(|i| match i.decode() {
                    ItemView::Barrier(b) => Some(b),
                    ItemView::Ref(_) => None,
                })
                .collect()
        };
        let first = match self.streams.first() {
            Some(s) => barrier_seq(s),
            None => return Ok(()),
        };
        if first.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("{}: barrier ids do not ascend", self.name));
        }
        for (pid, s) in self.streams.iter().enumerate().skip(1) {
            if barrier_seq(s) != first {
                return Err(format!(
                    "{}: processor {pid} sees a different barrier sequence than processor 0",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_matching_barriers() {
        let w = Workload {
            name: "t".into(),
            streams: vec![
                vec![StreamItem::read(0, 1), StreamItem::barrier(0), StreamItem::barrier(1)],
                vec![StreamItem::barrier(0), StreamItem::write(64, 2), StreamItem::barrier(1)],
            ],
        };
        assert!(w.validate().is_ok());
        assert_eq!(w.total_refs(), 2);
    }

    #[test]
    fn validate_rejects_mismatched_barriers() {
        let w = Workload {
            name: "t".into(),
            streams: vec![vec![StreamItem::barrier(0)], vec![StreamItem::barrier(1)]],
        };
        assert!(w.validate().is_err());
    }

    #[test]
    fn validate_rejects_descending_barriers() {
        let w = Workload {
            name: "t".into(),
            streams: vec![vec![StreamItem::barrier(1), StreamItem::barrier(0)]],
        };
        assert!(w.validate().is_err());
    }

    #[test]
    fn items_round_trip_at_every_field_boundary() {
        for addr in [0, StreamItem::MAX_ADDR] {
            for work in [0, StreamItem::MAX_WORK] {
                for (item, kind) in [
                    (StreamItem::read(addr, work), RefKind::Read),
                    (StreamItem::write(addr, work), RefKind::Write),
                ] {
                    assert!(!item.is_barrier());
                    assert_eq!(item.decode(), ItemView::Ref(MemRef { addr, kind, work }));
                }
            }
        }
        for id in [0, u32::MAX] {
            let item = StreamItem::barrier(id);
            assert!(item.is_barrier());
            assert_eq!(item.decode(), ItemView::Barrier(id));
        }
    }

    #[test]
    #[should_panic(expected = "stream address 0x1000000000000")]
    fn an_address_past_the_limit_panics() {
        StreamItem::read(StreamItem::MAX_ADDR + 1, 0);
    }

    #[test]
    #[should_panic(expected = "stream work 16384")]
    fn a_work_past_the_limit_panics() {
        StreamItem::write(0, StreamItem::MAX_WORK + 1);
    }

    #[test]
    fn empty_workload_is_valid() {
        assert!(Workload::default().validate().is_ok());
    }
}
