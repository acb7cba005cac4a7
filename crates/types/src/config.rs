//! Configuration structs and the paper's parameter presets.
//!
//! [`SystemConfig::paper_table2`] encodes the execution-driven simulation
//! parameters of the paper's Table 2; [`TraceSimConfig::paper_table3`]
//! encodes the trace-driven parameters of Table 3. Every struct validates
//! itself so misconfigured sweeps fail loudly instead of producing silently
//! wrong figures.

use crate::addr::AddressMap;
use crate::protocol::Protocol;

/// Largest supported machine: the full range a `NodeId` (`u8`) can
/// address. The flat `SharerSet` bitmap covers exactly this range, so no
/// valid configuration can ever wrap a directory bit vector.
pub const MAX_NODES: usize = 256;

/// Geometry and access time of one set-associative cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (block) size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in cycles.
    pub access_cycles: u32,
}

impl CacheGeometry {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways as u64)
    }

    /// Number of lines the cache can hold.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// Checks the geometry is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() {
            return Err(format!("line size {} not a power of two", self.line_bytes));
        }
        if self.ways == 0 {
            return Err("associativity must be at least 1".into());
        }
        let set_bytes = self.line_bytes * self.ways as u64;
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(set_bytes) {
            return Err(format!(
                "cache size {} is not a multiple of way-set size {}",
                self.size_bytes, set_bytes
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} not a power of two", self.sets()));
        }
        Ok(())
    }
}

/// Main-memory (DRAM) module parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// DRAM access time in cycles (Table 2: 40).
    pub access_cycles: u32,
    /// Interleaving factor: number of banks per module (Table 2: 4).
    pub interleave: u32,
    /// Directory controller occupancy per request, in cycles. The paper
    /// repeatedly cites "coherence controller occupancies" as a component of
    /// dirty-read latency; this models the controller's busy time.
    pub controller_occupancy: u32,
}

/// Processor-core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessorConfig {
    /// Instructions issued per cycle (Table 2: 4-way issue).
    pub issue_width: u32,
    /// Write-buffer depth; under release consistency stores retire through
    /// this buffer without stalling the processor until it fills.
    pub write_buffer_entries: u32,
    /// Cycles a processor waits before re-issuing a NAK'd request.
    pub retry_backoff_cycles: u32,
}

/// Crossbar switch and link parameters (Table 2 / §4.1, after the SGI
/// SPIDER and Intel Cavallino numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Down-ports per switch (toward processors). An "8x8 crossbar" in the
    /// paper's bidirectional arrangement has 4 down-ports and 4 up-ports,
    /// i.e. `radix = 4`; a "4x4 crossbar" has `radix = 2`.
    pub radix: u32,
    /// Switch-core traversal delay in cycles (Table 2: 4).
    pub core_cycles: u32,
    /// Link cycles to transmit one flit (16-bit links, 8-byte flits:
    /// 4 cycles — Table 2).
    pub link_cycles_per_flit: u32,
    /// Flit length in bytes (Table 2: 8).
    pub flit_bytes: u64,
    /// Virtual channels per input link (Table 2: 2).
    pub virtual_channels: u32,
    /// Input FIFO capacity per virtual channel, in flits (Table 2: 4).
    pub buffer_flits: u32,
}

/// Switch-directory (DRESAR) parameters (Table 2 / §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchDirConfig {
    /// Total entries per switch directory (paper sweeps 256–2048).
    pub entries: u32,
    /// Associativity (paper: 4-way).
    pub ways: u32,
    /// Pending-buffer entries for transient blocks in large (8x8) switches
    /// (paper §4.3: 8–16 entries).
    pub pending_buffer_entries: u32,
    /// What a read that hits a TRANSIENT entry does (paper: retry).
    pub transient_policy: TransientReadPolicy,
}

/// Policy for a `ReadRequest` that hits a TRANSIENT switch-directory entry
/// (paper §3.2 discusses both alternatives; the paper *chose* `Retry`
/// "because communication intensive blocks have very few sharers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransientReadPolicy {
    /// Sink the read and NAK the requester (the paper's choice).
    #[default]
    Retry,
    /// Sink the read and remember the requester in the entry's bit vector;
    /// it is served with data when the owner's copyback/writeback passes
    /// (the paper's rejected-for-complexity alternative — kept as an
    /// ablation).
    Accumulate,
}

impl SwitchDirConfig {
    /// The largest pending buffer: a way names its pending-table slot with
    /// a 16-bit index.
    pub const MAX_PENDING_BUFFER_ENTRIES: u32 = 1 << 16;

    /// The paper's default operating point: 1024 entries, 4-way.
    pub fn paper_default() -> Self {
        SwitchDirConfig {
            entries: 1024,
            ways: 4,
            pending_buffer_entries: 16,
            transient_policy: TransientReadPolicy::Retry,
        }
    }

    /// The sweep the paper evaluates in Figures 8–11.
    pub fn paper_sweep() -> Vec<Self> {
        [256u32, 512, 1024, 2048]
            .into_iter()
            .map(|entries| SwitchDirConfig { entries, ..Self::paper_default() })
            .collect()
    }

    /// Checks the directory geometry.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 || self.entries == 0 {
            return Err("switch directory needs at least one entry and one way".into());
        }
        if !self.entries.is_multiple_of(self.ways) {
            return Err(format!("{} entries not divisible by {} ways", self.entries, self.ways));
        }
        if !(self.entries / self.ways).is_power_of_two() {
            return Err("switch-directory set count must be a power of two".into());
        }
        if self.pending_buffer_entries > Self::MAX_PENDING_BUFFER_ENTRIES {
            return Err(format!(
                "pending buffer of {} entries exceeds the {} a 16-bit slot index can address",
                self.pending_buffer_entries,
                Self::MAX_PENDING_BUFFER_ENTRIES
            ));
        }
        Ok(())
    }
}

/// Complete configuration of the execution-driven CC-NUMA simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of nodes (processor + memory module each). Table 2: 16.
    pub nodes: usize,
    /// Page size for round-robin home placement.
    pub page_bytes: u64,
    /// L1 cache geometry (Table 2: 16 KB, 32 B lines, 2-way, 1 cycle).
    pub l1: CacheGeometry,
    /// L2 cache geometry (Table 2: 128 KB, 32 B lines, 4-way, 8 cycles).
    pub l2: CacheGeometry,
    /// Memory/directory parameters.
    pub memory: MemoryConfig,
    /// Processor parameters.
    pub processor: ProcessorConfig,
    /// Switch/link parameters.
    pub switch: SwitchConfig,
    /// Switch-directory parameters; `None` simulates the base machine the
    /// paper normalizes against.
    pub switch_dir: Option<SwitchDirConfig>,
    /// Coherence protocol the caches and home directories run
    /// (default [`Protocol::Msi`], the paper's protocol).
    pub protocol: Protocol,
}

impl SystemConfig {
    /// The paper's Table 2 configuration: a 16-node machine with 8x8
    /// switches in 2 stages, the default 1K-entry switch directory enabled.
    pub fn paper_table2() -> Self {
        SystemConfig {
            nodes: 16,
            page_bytes: 4096,
            l1: CacheGeometry { size_bytes: 16 * 1024, line_bytes: 32, ways: 2, access_cycles: 1 },
            l2: CacheGeometry { size_bytes: 128 * 1024, line_bytes: 32, ways: 4, access_cycles: 8 },
            memory: MemoryConfig { access_cycles: 40, interleave: 4, controller_occupancy: 16 },
            processor: ProcessorConfig {
                issue_width: 4,
                write_buffer_entries: 8,
                retry_backoff_cycles: 32,
            },
            switch: SwitchConfig {
                radix: 4,
                core_cycles: 4,
                link_cycles_per_flit: 4,
                flit_bytes: 8,
                virtual_channels: 2,
                buffer_flits: 4,
            },
            switch_dir: Some(SwitchDirConfig::paper_default()),
            protocol: Protocol::Msi,
        }
    }

    /// The base machine (no directory caching) the paper normalizes to.
    pub fn paper_base() -> Self {
        SystemConfig { switch_dir: None, ..Self::paper_table2() }
    }

    /// A Table 2 machine scaled to a deeper butterfly: `nodes` processors
    /// behind `radix`-down-port switches (e.g. 64 nodes/radix 4 = 3 stages,
    /// 256 nodes/radix 4 = 4 stages). Everything else keeps the paper's
    /// parameters so scaling sweeps vary exactly one axis.
    pub fn scaled(nodes: usize, radix: u32) -> Self {
        let mut cfg = Self::paper_table2();
        cfg.nodes = nodes;
        cfg.switch.radix = radix;
        cfg
    }

    /// Address map implied by this configuration (L1 and L2 share one line
    /// size; `validate` enforces it).
    pub fn address_map(&self) -> AddressMap {
        AddressMap::new(self.l2.line_bytes, self.page_bytes, self.nodes)
    }

    /// Number of BMIN stages needed: `radix^stages >= nodes`.
    pub fn stages(&self) -> u32 {
        let mut stages = 0u32;
        let mut reach = 1usize;
        while reach < self.nodes {
            reach *= self.switch.radix as usize;
            stages += 1;
        }
        stages.max(1)
    }

    /// Validates the whole configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 || self.nodes > MAX_NODES {
            return Err(format!("nodes = {} outside supported range 2..={MAX_NODES}", self.nodes));
        }
        if !self.nodes.is_power_of_two() {
            return Err("node count must be a power of two for the butterfly BMIN".into());
        }
        self.l1.validate().map_err(|e| format!("l1: {e}"))?;
        self.l2.validate().map_err(|e| format!("l2: {e}"))?;
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err("L1 and L2 must share one line size (inclusive hierarchy)".into());
        }
        if self.l2.size_bytes < self.l1.size_bytes {
            return Err("L2 must be at least as large as L1 (inclusion)".into());
        }
        if self.switch.radix < 2 {
            return Err("switch radix must be at least 2".into());
        }
        let mut reach = 1usize;
        for _ in 0..self.stages() {
            reach *= self.switch.radix as usize;
        }
        if reach != self.nodes {
            return Err(format!(
                "nodes = {} is not a power of switch radix {}",
                self.nodes, self.switch.radix
            ));
        }
        if self.processor.issue_width == 0 {
            return Err("issue width must be at least 1".into());
        }
        if let Some(sd) = &self.switch_dir {
            sd.validate().map_err(|e| format!("switch_dir: {e}"))?;
        }
        Ok(())
    }
}

/// Constant latencies of the trace-driven simulator (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLatencies {
    /// Cache access time.
    pub cache_access: u32,
    /// Read serviced by the local memory.
    pub local_memory: u32,
    /// Cache-to-cache transfer whose home node is local to the requester.
    pub ctoc_local_home: u32,
    /// Read serviced by a remote memory.
    pub remote_memory: u32,
    /// Cache-to-cache transfer whose home node is remote.
    pub ctoc_remote_home: u32,
    /// Cache-to-cache transfer served via a switch-directory hit.
    pub switch_dir_hit: u32,
}

/// Configuration of the trace-driven simulator (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSimConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node cache: Table 3 models a single 2 MB 4-way set-associative
    /// layer.
    pub cache: CacheGeometry,
    /// Page size for home placement.
    pub page_bytes: u64,
    /// The constant service latencies.
    pub latencies: TraceLatencies,
    /// Switch directory parameters; `None` = base system.
    pub switch_dir: Option<SwitchDirConfig>,
    /// Down-radix of the butterfly used to place switch directories (the
    /// trace simulator models topology only for switch-directory reach, not
    /// for contention).
    pub switch_radix: u32,
}

impl TraceSimConfig {
    /// The paper's Table 3 configuration.
    pub fn paper_table3() -> Self {
        TraceSimConfig {
            nodes: 16,
            cache: CacheGeometry {
                size_bytes: 2 * 1024 * 1024,
                line_bytes: 32,
                ways: 4,
                access_cycles: 8,
            },
            page_bytes: 4096,
            latencies: TraceLatencies {
                cache_access: 8,
                local_memory: 100,
                ctoc_local_home: 220,
                remote_memory: 260,
                ctoc_remote_home: 320,
                switch_dir_hit: 200,
            },
            switch_dir: Some(SwitchDirConfig::paper_default()),
            switch_radix: 4,
        }
    }

    /// The base (no switch directory) variant.
    pub fn paper_base() -> Self {
        TraceSimConfig { switch_dir: None, ..Self::paper_table3() }
    }

    /// Address map implied by this configuration.
    pub fn address_map(&self) -> AddressMap {
        AddressMap::new(self.cache.line_bytes, self.page_bytes, self.nodes)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 || self.nodes > MAX_NODES {
            return Err(format!("nodes = {} outside supported range 2..={MAX_NODES}", self.nodes));
        }
        if !self.nodes.is_power_of_two() {
            return Err("node count must be a power of two for the butterfly BMIN".into());
        }
        // The BMIN is constructed even for base (no switch directory)
        // machines, so the butterfly shape must always be realizable.
        let radix = self.switch_radix as usize;
        if radix < 2 {
            return Err("switch radix must be at least 2".into());
        }
        let mut reach = 1usize;
        while reach < self.nodes {
            reach *= radix;
        }
        if reach != self.nodes {
            return Err(format!("nodes = {} is not a power of switch radix {radix}", self.nodes));
        }
        self.cache.validate().map_err(|e| format!("cache: {e}"))?;
        if let Some(sd) = &self.switch_dir {
            sd.validate().map_err(|e| format!("switch_dir: {e}"))?;
        }
        let l = &self.latencies;
        if l.ctoc_local_home <= l.local_memory || l.ctoc_remote_home <= l.remote_memory {
            return Err("cache-to-cache latencies must exceed the corresponding clean-memory \
                 latencies (the 1.5-2x premium the paper attacks)"
                .into());
        }
        if l.switch_dir_hit >= l.ctoc_remote_home {
            return Err("a switch-directory hit must be faster than a remote-home CtoC".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_preset_is_valid() {
        let c = SystemConfig::paper_table2();
        c.validate().expect("Table 2 preset must validate");
        assert_eq!(c.nodes, 16);
        assert_eq!(c.stages(), 2, "16 nodes with radix-4 switches = 2 stages");
        assert_eq!(c.l1.sets(), 256);
        assert_eq!(c.l2.sets(), 1024);
    }

    #[test]
    fn table3_preset_is_valid() {
        let c = TraceSimConfig::paper_table3();
        c.validate().expect("Table 3 preset must validate");
        assert_eq!(c.cache.lines(), 65536);
        assert_eq!(c.latencies.ctoc_remote_home, 320);
    }

    #[test]
    fn base_presets_disable_switch_dir() {
        assert!(SystemConfig::paper_base().switch_dir.is_none());
        assert!(TraceSimConfig::paper_base().switch_dir.is_none());
    }

    #[test]
    fn sweep_covers_paper_sizes() {
        let sizes: Vec<u32> = SwitchDirConfig::paper_sweep().iter().map(|c| c.entries).collect();
        assert_eq!(sizes, vec![256, 512, 1024, 2048]);
        for c in SwitchDirConfig::paper_sweep() {
            c.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_bad_cache() {
        let mut c = SystemConfig::paper_table2();
        c.l1.line_bytes = 48;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::paper_table2();
        c.l1.line_bytes = 64; // differs from L2
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_power_of_two_nodes() {
        let mut c = SystemConfig::paper_table2();
        c.nodes = 12;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_slow_switch_dir() {
        let mut c = TraceSimConfig::paper_table3();
        c.latencies.switch_dir_hit = 400;
        assert!(c.validate().is_err());
    }

    #[test]
    fn stages_scale_with_radix() {
        let mut c = SystemConfig::paper_table2();
        c.switch.radix = 2; // "4x4" switches
        assert_eq!(c.stages(), 4);
        c.validate().unwrap();
    }

    #[test]
    fn scaled_presets_cover_deeper_butterflies() {
        for (nodes, radix, stages) in [(64, 4, 3), (128, 2, 7), (256, 4, 4), (256, 2, 8)] {
            let c = SystemConfig::scaled(nodes, radix);
            c.validate().unwrap_or_else(|e| panic!("scaled({nodes},{radix}): {e}"));
            assert_eq!(c.stages(), stages, "scaled({nodes},{radix})");
        }
    }

    #[test]
    fn validate_rejects_out_of_range_and_unbuildable_nodes() {
        let mut c = SystemConfig::paper_table2();
        c.nodes = 512;
        assert!(c.validate().unwrap_err().contains("2..=256"));
        let mut c = SystemConfig::scaled(128, 4); // 128 is not a power of 4
        c.nodes = 128;
        assert!(c.validate().unwrap_err().contains("not a power of switch radix"));
        let mut t = TraceSimConfig::paper_table3();
        t.nodes = 512;
        assert!(t.validate().unwrap_err().contains("2..=256"));
        t.nodes = 12;
        assert!(t.validate().is_err(), "unbuildable butterfly must be rejected up front");
        t.nodes = 256;
        t.validate().expect("256-node trace machine (4 stages of radix 4) must validate");
    }

    #[test]
    fn switch_dir_geometry_checks() {
        let mut sd = SwitchDirConfig::paper_default();
        sd.entries = 100; // 25 sets, not a power of two
        assert!(sd.validate().is_err());
        sd.entries = 0;
        assert!(sd.validate().is_err());
    }

    #[test]
    fn switch_dir_pending_buffer_fits_its_slot_index() {
        let mut sd = SwitchDirConfig::paper_default();
        sd.pending_buffer_entries = 65_536;
        sd.validate().expect("65,536 slots are indexable by a u16");
        sd.pending_buffer_entries = 65_537;
        let err = sd.validate().unwrap_err();
        assert!(err.contains("pending buffer of 65537 entries"), "{err}");
    }
}
