//! Coherence-protocol identifiers.
//!
//! The simulator grew up hardwired to the paper's 3-hop MSI-style directory
//! protocol. This module names the protocol *family* the workspace now
//! models — the identifier lives here (the bottom of the crate graph) so
//! configuration ([`crate::config::SystemConfig`]), request specs
//! ([`crate::RunSpec`]) and every simulator crate can agree on it. Each
//! per-protocol rule is written once, in the code that executes it: the
//! cache hierarchy, the system's fill and intervention handlers, the home
//! directory and the end-of-run coherence audit (DESIGN.md §15).

use crate::json::{FromJson, JsonError, JsonValue, ToJson};

/// Which coherence protocol the home directories and caches run.
///
/// `Msi` is the paper's protocol and the default everywhere: a config or
/// spec that never mentions a protocol simulates exactly what it simulated
/// before the family existed (pinned digests and committed baselines stay
/// bit-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum Protocol {
    /// The paper's 3-hop MSI directory protocol (default).
    #[default]
    Msi,
    /// MESI: an unshared read fill is granted EXCLUSIVE, so the first
    /// write upgrades silently (no `WriteRequest` round-trip).
    Mesi,
    /// MOESI: MESI plus the OWNED state — an owner serving a read CtoC
    /// keeps the dirty block and supplies later readers itself instead of
    /// writing back through memory.
    Moesi,
    /// Directoryless shared LLC baseline (after the DLS proposal,
    /// arXiv:1206.4753): the home serves reads to dirty blocks straight
    /// from memory without forwarding a cache-to-cache transfer. A latency
    /// *lower bound* for the read path, not a fully coherent protocol —
    /// see DESIGN.md §15 for the tracking caveats.
    Dls,
}

impl Protocol {
    /// Every member of the family, in canonical order.
    pub const ALL: [Protocol; 4] = [Protocol::Msi, Protocol::Mesi, Protocol::Moesi, Protocol::Dls];

    /// Stable lowercase label (JSON value, run names, CLI).
    pub fn as_str(self) -> &'static str {
        match self {
            Protocol::Msi => "msi",
            Protocol::Mesi => "mesi",
            Protocol::Moesi => "moesi",
            Protocol::Dls => "dls",
        }
    }

    /// Parses a stable label back (case-sensitive, like every other
    /// enum-valued config string in the workspace).
    pub fn parse(s: &str) -> Option<Protocol> {
        match s {
            "msi" => Some(Protocol::Msi),
            "mesi" => Some(Protocol::Mesi),
            "moesi" => Some(Protocol::Moesi),
            "dls" => Some(Protocol::Dls),
            _ => None,
        }
    }

    /// Whether the home grants EXCLUSIVE on an unshared read fill (the
    /// MESI/MOESI E-state rule). Under this rule the home books the reader
    /// as the block's owner, because an E holder may upgrade to MODIFIED
    /// silently.
    pub fn exclusive_read_fill(self) -> bool {
        matches!(self, Protocol::Mesi | Protocol::Moesi)
    }

    /// Whether an owner serving a read intervention retains dirty
    /// ownership (MOESI's OWNED state) instead of downgrading to SHARED
    /// with a memory copyback.
    pub fn owner_retains_on_read(self) -> bool {
        self == Protocol::Moesi
    }

    /// Whether the home serves reads to dirty blocks straight from memory
    /// (the directoryless-shared-LLC baseline) instead of forwarding a
    /// cache-to-cache transfer.
    pub fn home_read_bypass(self) -> bool {
        self == Protocol::Dls
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for Protocol {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.as_str().to_string())
    }
}

impl FromJson for Protocol {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let s = v.as_str().ok_or_else(|| JsonError::new("protocol must be a string"))?;
        Protocol::parse(s).ok_or_else(|| {
            JsonError::new(format!("unknown protocol '{s}'; expected msi|mesi|moesi|dls"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.as_str()), Some(p));
            assert_eq!(Protocol::from_json(&p.to_json()).unwrap(), p);
        }
        assert_eq!(Protocol::parse("MESI"), None, "labels are case-sensitive");
        assert!(Protocol::from_json(&JsonValue::parse("7").unwrap()).is_err());
    }

    #[test]
    fn default_is_the_papers_protocol() {
        assert_eq!(Protocol::default(), Protocol::Msi);
        assert!(!Protocol::Msi.exclusive_read_fill());
        assert!(!Protocol::Msi.owner_retains_on_read());
        assert!(!Protocol::Msi.home_read_bypass());
    }

    #[test]
    fn family_predicates_partition_as_documented() {
        assert!(Protocol::Mesi.exclusive_read_fill());
        assert!(Protocol::Moesi.exclusive_read_fill());
        assert!(!Protocol::Dls.exclusive_read_fill());
        assert!(Protocol::Moesi.owner_retains_on_read());
        assert!(!Protocol::Mesi.owner_retains_on_read());
        assert!(Protocol::Dls.home_read_bypass());
        assert!(!Protocol::Moesi.home_read_bypass());
    }
}
