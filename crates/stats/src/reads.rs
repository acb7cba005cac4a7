//! Read-miss classification and latency accounting.

use dresar_types::{JsonValue, ToJson};

/// How a read miss was ultimately serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadClass {
    /// Data came clean from the home memory.
    CleanMemory,
    /// Data came from another cache via a *home-node* cache-to-cache
    /// transfer (directory lookup at the home forwarded the intervention).
    DirtyCtoCHome,
    /// Data came from another cache via a *switch-directory* hit: the read
    /// never reached the home node.
    DirtyCtoCSwitch,
}

/// Accumulated read statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReadStats {
    /// Reads serviced clean from memory.
    pub clean: u64,
    /// Home-node cache-to-cache transfers (Figure 8's metric).
    pub ctoc_home: u64,
    /// Switch-directory-served cache-to-cache transfers.
    pub ctoc_switch: u64,
    /// Total read-miss latency cycles (issue to data).
    pub latency_cycles: u64,
    /// Total processor stall cycles attributable to reads.
    pub stall_cycles: u64,
    /// Retries (NAKs) observed by readers.
    pub retries: u64,
}

impl ReadStats {
    /// Records a serviced read miss.
    pub fn record(&mut self, class: ReadClass, latency: u64) {
        match class {
            ReadClass::CleanMemory => self.clean += 1,
            ReadClass::DirtyCtoCHome => self.ctoc_home += 1,
            ReadClass::DirtyCtoCSwitch => self.ctoc_switch += 1,
        }
        self.latency_cycles += latency;
    }

    /// Total serviced read misses.
    pub fn total(&self) -> u64 {
        self.clean + self.ctoc_home + self.ctoc_switch
    }

    /// Total dirty (cache-to-cache) reads, however served.
    pub fn dirty(&self) -> u64 {
        self.ctoc_home + self.ctoc_switch
    }

    /// Fraction of reads that required a cache-to-cache transfer
    /// (Figure 1's y-axis).
    pub fn dirty_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.dirty() as f64 / self.total() as f64
        }
    }

    /// Mean read-miss latency in cycles (Figure 9's basis).
    pub fn avg_latency(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.latency_cycles as f64 / self.total() as f64
        }
    }

    /// Merges another run's counters (used when aggregating processors).
    pub fn merge(&mut self, other: &ReadStats) {
        self.clean += other.clean;
        self.ctoc_home += other.ctoc_home;
        self.ctoc_switch += other.ctoc_switch;
        self.latency_cycles += other.latency_cycles;
        self.stall_cycles += other.stall_cycles;
        self.retries += other.retries;
    }
}

impl ToJson for ReadStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("clean", self.clean)
            .field("ctoc_home", self.ctoc_home)
            .field("ctoc_switch", self.ctoc_switch)
            .field("latency_cycles", self.latency_cycles)
            .field("stall_cycles", self.stall_cycles)
            .field("retries", self.retries)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies() {
        let mut s = ReadStats::default();
        s.record(ReadClass::CleanMemory, 100);
        s.record(ReadClass::DirtyCtoCHome, 320);
        s.record(ReadClass::DirtyCtoCSwitch, 200);
        assert_eq!(s.total(), 3);
        assert_eq!(s.dirty(), 2);
        assert_eq!(s.latency_cycles, 620);
        assert!((s.dirty_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.avg_latency() - 620.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ReadStats::default();
        assert_eq!(s.dirty_fraction(), 0.0);
        assert_eq!(s.avg_latency(), 0.0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = ReadStats {
            clean: 1,
            ctoc_home: 2,
            ctoc_switch: 3,
            latency_cycles: 10,
            stall_cycles: 5,
            retries: 1,
        };
        let b = ReadStats {
            clean: 10,
            ctoc_home: 20,
            ctoc_switch: 30,
            latency_cycles: 100,
            stall_cycles: 50,
            retries: 9,
        };
        a.merge(&b);
        assert_eq!(a.clean, 11);
        assert_eq!(a.ctoc_home, 22);
        assert_eq!(a.ctoc_switch, 33);
        assert_eq!(a.latency_cycles, 110);
        assert_eq!(a.stall_cycles, 55);
        assert_eq!(a.retries, 10);
    }
}
