//! End-of-run coherence invariant checker.
//!
//! The paper's safety argument is that switch directories are pure hint
//! caches: losing, scrubbing or disabling them must never corrupt the
//! protocol, because the home full-map directory stays authoritative. This
//! module audits that claim after a run, fault-injected or not:
//!
//! 1. **Exclusive ownership** — at most one cache holds a block dirty
//!    (MODIFIED or OWNED), at most one holds it EXCLUSIVE, and the home's
//!    ownership record names that holder. Which resident states a home
//!    claim permits is a protocol property: under MESI/MOESI a home
//!    `Modified(n)` is satisfied by `n` holding EXCLUSIVE, under MOESI a
//!    home `Owned` requires the owner to hold OWNED.
//! 2. **Holder tracking** — every cached copy is covered by the home state
//!    per `holder_allowed` (the home's sharer vector may
//!    be a superset: clean copies evict silently, but never the reverse;
//!    the DLS baseline deliberately leaves read bypasses untracked).
//! 3. **Hint soundness** — every MODIFIED switch-directory entry points at
//!    the block's true current owner per the home directory.
//! 4. **Quiescence** — after a clean drain no home entry is mid-transaction
//!    and no switch-directory entry is TRANSIENT.
//! 5. **Exact accounting** — every drained node executed exactly the
//!    references its stream contains, faults or not.
//!
//! The checker also folds the final per-block machine state (home entry +
//! cache holders, switch directories excluded since they are hints) into a
//! deterministic digest, so tests can assert that a run degraded mid-flight
//! (SD disabled) quiesces in the *same* coherence state as a base-machine
//! run.

use std::collections::BTreeMap;

use dresar_cache::LineState;
use dresar_directory::DirState;
use dresar_types::{fnv1a, BlockAddr, JsonValue, NodeId, Protocol, ToJson, FNV_OFFSET};

use super::{Node, System};
use crate::switchdir::SdState;

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceViolation {
    /// Stable rule identifier (`exclusive-owner`, `holder-not-tracked`,
    /// `sd-stale-hint`, `sd-transient-at-quiescence`,
    /// `home-busy-at-quiescence`, `refs-mismatch`).
    pub rule: &'static str,
    /// Block concerned, when the rule is per-block.
    pub block: Option<BlockAddr>,
    /// Human-readable specifics.
    pub detail: String,
}

impl ToJson for CoherenceViolation {
    fn to_json(&self) -> JsonValue {
        let mut b = JsonValue::obj().field("rule", self.rule);
        if let Some(block) = self.block {
            b = b.field("block", block.0);
        }
        b.field("detail", self.detail.as_str()).build()
    }
}

/// Result of the end-of-run coherence audit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoherenceOutcome {
    /// Distinct blocks examined (union of home-tracked and cache-resident).
    pub blocks_checked: u64,
    /// Whether the run reached clean quiescence (all nodes drained, no
    /// watchdog trip). Quiescence-only rules are skipped otherwise.
    pub quiesced: bool,
    /// Every violated invariant, in deterministic order.
    pub violations: Vec<CoherenceViolation>,
    /// FNV-1a digest of the final per-block coherence state (home entry +
    /// sorted cache holders). Switch-directory contents are excluded: they
    /// are hints, so a degraded run must digest identically to a base run.
    pub digest: u64,
}

impl CoherenceOutcome {
    /// Whether every checked invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl ToJson for CoherenceOutcome {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("blocks_checked", self.blocks_checked)
            .field("quiesced", self.quiesced)
            .field("ok", self.ok())
            .field("violations", self.violations.clone())
            .field("digest", self.digest)
            .build()
    }
}

/// Per-block view assembled from every structure that holds coherence
/// state.
#[derive(Default)]
struct BlockView {
    home: Option<(DirState, bool)>,
    holders: Vec<(NodeId, LineState)>,
    sd_modified: Vec<(usize, NodeId)>,
    sd_transients: u64,
}

/// What the home directory claims about one (block, holder) pair.
#[derive(Clone, Copy)]
enum HomeClaim {
    /// The home believes nobody caches the block.
    Uncached,
    /// The home tracks the block as SHARED; the flag says whether this
    /// holder is in the sharer vector.
    SharedTracked(bool),
    /// The home books an exclusive owner; the flag says whether this
    /// holder is that owner.
    ModifiedBy(bool),
    /// The home books a MOESI owner plus sharers.
    OwnedBy {
        /// This holder is the recorded owner.
        is_owner: bool,
        /// This holder is in the sharer vector (owners count as tracked).
        tracked: bool,
    },
}

/// Whether a quiesced holder in `state` is compatible with what the home
/// claims, under protocol `p`:
///
/// * MSI: SHARED holders must be tracked sharers, MODIFIED holders must be
///   the recorded owner.
/// * MESI: additionally, an EXCLUSIVE holder is legal exactly when the
///   home books it as owner (E is clean, so the directory cannot tell E
///   from M — by design).
/// * MOESI: additionally, OWNED holders must be the recorded owner of an
///   `OwnedBy` entry, whose sharers hold SHARED.
/// * DLS: SHARED holders may be *untracked* — the bypass serves readers
///   the directory never records; that staleness is the documented cost
///   of the baseline.
fn holder_allowed(p: Protocol, state: LineState, claim: HomeClaim) -> bool {
    match (state, claim) {
        (LineState::Shared, HomeClaim::SharedTracked(tracked)) => tracked || p.home_read_bypass(),
        (LineState::Shared, HomeClaim::OwnedBy { tracked, .. }) => tracked,
        // The DLS stale-shared caveat: a bypass-served copy outlives the
        // directory's knowledge of it under any home state.
        (LineState::Shared, HomeClaim::ModifiedBy(_) | HomeClaim::Uncached) => p.home_read_bypass(),
        (LineState::Modified, HomeClaim::ModifiedBy(is_owner)) => is_owner,
        (LineState::Exclusive, HomeClaim::ModifiedBy(is_owner)) => {
            is_owner && p.exclusive_read_fill()
        }
        (LineState::Owned, HomeClaim::OwnedBy { is_owner, .. }) => {
            is_owner && p.owner_retains_on_read()
        }
        _ => false,
    }
}

/// Audits the final machine state. Called by `System::build_report` when
/// `RunOptions::verify_coherence` is set.
pub(super) fn check(sys: &System) -> CoherenceOutcome {
    let mut blocks: BTreeMap<u64, BlockView> = BTreeMap::new();
    for h in &sys.homes {
        for (block, state, busy) in h.blocks() {
            blocks.entry(block.0).or_default().home = Some((state, busy));
        }
    }
    for n in &sys.nodes {
        for (block, state) in n.hier.resident_blocks() {
            blocks.entry(block.0).or_default().holders.push((n.id, state));
        }
    }
    for (i, sd) in sys.sdirs.iter().enumerate() {
        let Some(sd) = sd else { continue };
        for (block, e) in sd.entries() {
            let v = blocks.entry(block.0).or_default();
            match e.state {
                SdState::Modified => v.sd_modified.push((i, e.owner)),
                SdState::Transient => v.sd_transients += 1,
            }
        }
    }

    let quiesced =
        sys.nodes.iter().all(Node::drained) && sys.watchdog.as_ref().is_none_or(|wd| !wd.tripped());
    let mut out = CoherenceOutcome {
        blocks_checked: blocks.len() as u64,
        quiesced,
        ..CoherenceOutcome::default()
    };
    let mut digest = FNV_OFFSET;

    let protocol = sys.cfg.protocol;
    for (&addr, v) in &blocks {
        let block = BlockAddr(addr);
        let mut holders = v.holders.clone();
        holders.sort_by_key(|&(n, _)| n);
        let dirty: Vec<NodeId> =
            holders.iter().filter(|&&(_, s)| s.is_dirty()).map(|&(n, _)| n).collect();
        let excl: Vec<NodeId> =
            holders.iter().filter(|&&(_, s)| s == LineState::Exclusive).map(|&(n, _)| n).collect();
        let (home_state, home_busy) = v.home.unwrap_or((DirState::Uncached, false));

        // 1. Exactly one dirty (MODIFIED/OWNED) holder, matching the home's
        // record, and an EXCLUSIVE holder is the sole copy.
        if dirty.len() > 1 {
            out.violations.push(CoherenceViolation {
                rule: "exclusive-owner",
                block: Some(block),
                detail: format!("{} caches hold the block dirty: {dirty:?}", dirty.len()),
            });
        }
        if !excl.is_empty() && holders.len() > 1 {
            out.violations.push(CoherenceViolation {
                rule: "exclusive-owner",
                block: Some(block),
                detail: format!(
                    "node {} holds EXCLUSIVE but {} caches hold copies",
                    excl[0],
                    holders.len()
                ),
            });
        }
        if quiesced {
            match &home_state {
                DirState::Modified(owner) => {
                    // The booked owner holds the block MODIFIED — or
                    // EXCLUSIVE, which the home cannot distinguish.
                    let ok = (dirty == [*owner] && excl.is_empty())
                        || (dirty.is_empty() && excl == [*owner]);
                    if !ok {
                        out.violations.push(CoherenceViolation {
                            rule: "exclusive-owner",
                            block: Some(block),
                            detail: format!(
                                "home records owner {owner} but dirty holders are {dirty:?} \
                                 and exclusive holders are {excl:?}"
                            ),
                        });
                    }
                }
                DirState::Owned { owner, .. } => {
                    let holds_owned =
                        holders.iter().any(|&(n, s)| n == *owner && s == LineState::Owned);
                    if dirty != [*owner] || !holds_owned {
                        out.violations.push(CoherenceViolation {
                            rule: "exclusive-owner",
                            block: Some(block),
                            detail: format!(
                                "home records OWNED supplier {owner} but dirty holders \
                                 are {dirty:?}"
                            ),
                        });
                    }
                }
                _ => {
                    if let Some(&n) = dirty.first() {
                        out.violations.push(CoherenceViolation {
                            rule: "exclusive-owner",
                            block: Some(block),
                            detail: format!(
                                "node {n} holds the block dirty but home state is {home_state:?}"
                            ),
                        });
                    }
                    if let Some(&n) = excl.first() {
                        out.violations.push(CoherenceViolation {
                            rule: "exclusive-owner",
                            block: Some(block),
                            detail: format!(
                                "node {n} holds EXCLUSIVE but home state is {home_state:?}"
                            ),
                        });
                    }
                }
            }

            // 2. Every cached copy is covered by the home state, by the
            // active protocol's rules.
            for &(n, state) in &holders {
                let claim = match &home_state {
                    DirState::Uncached => HomeClaim::Uncached,
                    DirState::Shared(s) => HomeClaim::SharedTracked(s.contains(n)),
                    DirState::Modified(o) => HomeClaim::ModifiedBy(*o == n),
                    DirState::Owned { owner, sharers } => {
                        HomeClaim::OwnedBy { is_owner: *owner == n, tracked: sharers.contains(n) }
                    }
                };
                if !holder_allowed(protocol, state, claim) {
                    out.violations.push(CoherenceViolation {
                        rule: "holder-not-tracked",
                        block: Some(block),
                        detail: format!(
                            "node {n} holds the block {state:?} but home records {home_state:?}"
                        ),
                    });
                }
            }

            // 3. MODIFIED switch-directory hints point at the true current
            // supplier — the booked owner, MODIFIED or (MOESI) OWNED.
            for &(sw, hinted) in &v.sd_modified {
                let hint_ok = match &home_state {
                    DirState::Modified(o) => *o == hinted,
                    DirState::Owned { owner, .. } => *owner == hinted,
                    _ => false,
                };
                if !hint_ok {
                    out.violations.push(CoherenceViolation {
                        rule: "sd-stale-hint",
                        block: Some(block),
                        detail: format!(
                            "switch {sw} hints owner {hinted} but home records {home_state:?}"
                        ),
                    });
                }
            }

            // 4. Quiescence: nothing mid-transaction anywhere.
            if v.sd_transients > 0 {
                out.violations.push(CoherenceViolation {
                    rule: "sd-transient-at-quiescence",
                    block: Some(block),
                    detail: format!("{} TRANSIENT switch entries remain", v.sd_transients),
                });
            }
            if home_busy {
                out.violations.push(CoherenceViolation {
                    rule: "home-busy-at-quiescence",
                    block: Some(block),
                    detail: "home entry still mid-transaction".into(),
                });
            }
        }

        // Digest the block's final home + cache state (hints excluded).
        digest = fnv1a(digest, &addr.to_le_bytes());
        match &home_state {
            DirState::Uncached => digest = fnv1a(digest, b"U"),
            DirState::Shared(s) => {
                digest = fnv1a(digest, b"S");
                // Digest the canonical word layout: word 0 always (matching
                // the old single-`u64` digest bit-for-bit for <=64-node
                // machines, protecting committed baselines), higher words
                // only when any pid >= 64 is present.
                let words = s.words();
                digest = fnv1a(digest, &words[0].to_le_bytes());
                if words[1..].iter().any(|&w| w != 0) {
                    for w in &words[1..] {
                        digest = fnv1a(digest, &w.to_le_bytes());
                    }
                }
            }
            DirState::Modified(owner) => {
                digest = fnv1a(digest, b"M");
                digest = fnv1a(digest, &[*owner]);
            }
            DirState::Owned { owner, sharers } => {
                // New tag for a state only non-MSI protocols produce: MSI
                // digests stay bit-identical to the committed baselines.
                digest = fnv1a(digest, b"O");
                digest = fnv1a(digest, &[*owner]);
                let words = sharers.words();
                digest = fnv1a(digest, &words[0].to_le_bytes());
                if words[1..].iter().any(|&w| w != 0) {
                    for w in &words[1..] {
                        digest = fnv1a(digest, &w.to_le_bytes());
                    }
                }
            }
        }
        for &(n, state) in &holders {
            // Holder tags: 1 = Shared (MSI legacy), 2 = Modified (MSI
            // legacy), 3 = Exclusive, 4 = Owned. MSI runs only emit 1/2.
            let tag = match state {
                LineState::Modified => 2,
                LineState::Exclusive => 3,
                LineState::Owned => 4,
                _ => 1,
            };
            digest = fnv1a(digest, &[n, tag]);
        }
    }

    // 5. Exact per-node reference accounting for drained nodes.
    for n in &sys.nodes {
        if !n.drained() {
            continue;
        }
        let expected = n.items.iter().filter(|i| !i.is_barrier()).count() as u64;
        if n.refs_executed != expected {
            out.violations.push(CoherenceViolation {
                rule: "refs-mismatch",
                block: None,
                detail: format!(
                    "node {} executed {} references, stream holds {expected}",
                    n.id, n.refs_executed
                ),
            });
        }
    }

    out.digest = digest;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holder_rules_differ_exactly_where_the_protocols_do() {
        use HomeClaim as C;
        // MSI: tracked sharers and the recorded owner only.
        assert!(holder_allowed(Protocol::Msi, LineState::Shared, C::SharedTracked(true)));
        assert!(!holder_allowed(Protocol::Msi, LineState::Shared, C::SharedTracked(false)));
        assert!(holder_allowed(Protocol::Msi, LineState::Modified, C::ModifiedBy(true)));
        assert!(!holder_allowed(Protocol::Msi, LineState::Modified, C::ModifiedBy(false)));
        assert!(!holder_allowed(Protocol::Msi, LineState::Exclusive, C::ModifiedBy(true)));
        // MESI: the owner record may cover a clean E holder.
        assert!(holder_allowed(Protocol::Mesi, LineState::Exclusive, C::ModifiedBy(true)));
        assert!(!holder_allowed(Protocol::Mesi, LineState::Exclusive, C::ModifiedBy(false)));
        assert!(!holder_allowed(
            Protocol::Mesi,
            LineState::Owned,
            C::OwnedBy { is_owner: true, tracked: true }
        ));
        // MOESI: O holders own OwnedBy entries; their sharers hold S.
        assert!(holder_allowed(
            Protocol::Moesi,
            LineState::Owned,
            C::OwnedBy { is_owner: true, tracked: true }
        ));
        assert!(!holder_allowed(
            Protocol::Moesi,
            LineState::Owned,
            C::OwnedBy { is_owner: false, tracked: true }
        ));
        assert!(holder_allowed(
            Protocol::Moesi,
            LineState::Shared,
            C::OwnedBy { is_owner: false, tracked: true }
        ));
        // DLS: untracked SHARED copies are the documented bypass cost.
        assert!(holder_allowed(Protocol::Dls, LineState::Shared, C::ModifiedBy(false)));
        assert!(holder_allowed(Protocol::Dls, LineState::Shared, C::SharedTracked(false)));
        assert!(holder_allowed(Protocol::Dls, LineState::Shared, C::Uncached));
        assert!(!holder_allowed(Protocol::Msi, LineState::Shared, C::Uncached));
        // Nobody lets a dirty holder go unrecorded.
        for p in Protocol::ALL {
            assert!(!holder_allowed(p, LineState::Modified, C::Uncached), "{p}");
            assert!(!holder_allowed(p, LineState::Owned, C::SharedTracked(true)), "{p}");
        }
    }
}
