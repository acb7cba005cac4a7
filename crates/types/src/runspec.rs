//! Canonical simulation-run request: [`RunSpec`] and its content digest.
//!
//! The serving layer (`dresar-server`) keys its result cache and its
//! in-flight request coalescing on [`RunSpec::digest`], so the digest has
//! two hard requirements:
//!
//! 1. **Canonical** — two requests that describe the same simulation must
//!    digest identically regardless of how they were spelled (JSON field
//!    order, omitted-vs-explicit defaults). The digest is therefore
//!    computed from the *parsed struct*, never from request bytes.
//! 2. **Stable** — the digest is a cache key that outlives a process (and,
//!    with a persisted cache, a build). Accidentally changing it — by
//!    reordering fields, renaming one, or swapping the hash function —
//!    silently splits the cache in two. A pinned-value test
//!    (`runspec_digest_stability`) turns that accident into a tier-1
//!    failure.
//!
//! The hash is [`fnv1a`] over a length-delimited field encoding, the same
//! function the coherence audit uses for its machine-state digest
//! (`dresar::system::coherence`). Determinism of the *simulator* is what
//! makes the digest sound as a cache key: equal specs produce byte-identical
//! reports, so a cache hit is indistinguishable from a re-run.

use crate::fasthash::{fnv1a, FNV_OFFSET};
use crate::json::{FromJson, JsonError, JsonValue, ToJson};
use crate::protocol::Protocol;

/// Domain-separation prefix folded into every digest. Bump the version
/// suffix whenever the field encoding changes shape so old and new digests
/// can never collide.
const DIGEST_DOMAIN: &[u8] = b"dresar.runspec.v1";

/// One simulation run request, as accepted by the serving layer.
///
/// Every field has a server-side default (see [`Default`]), so a request
/// only needs to name what it changes. `workload` is the paper's figure
/// label (`"FFT"`, `"TC"`, `"SOR"`, `"FWA"`, `"GAUSS"` run execution-driven;
/// `"TPC-C"`, `"TPC-D"` run trace-driven).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Workload label, matching the paper's figures.
    pub workload: String,
    /// Input-size preset: `tiny`, `reduced` or `paper`.
    pub scale: String,
    /// Node count (topology). Must be a power of the switch radix for the
    /// butterfly BMIN; the paper's machine is 16.
    pub nodes: u32,
    /// Switch-directory entries; `None` simulates the base machine the
    /// paper normalizes against. In JSON, an *omitted* field means the
    /// paper-default 1024 while an explicit `null` means the base machine.
    pub sd_entries: Option<u32>,
    /// Seed for the synthetic commercial trace generators (ignored by the
    /// deterministic scientific kernels but always part of the digest).
    pub seed: u64,
    /// Optional fault-plan spec (`key=value,...` — see
    /// `dresar_faults::FaultPlan::parse`). Execution-driven workloads only.
    pub faults: Option<String>,
    /// Optional per-request compute deadline in milliseconds (the server
    /// caps it). A *scheduling* directive, not part of the simulation:
    /// deliberately excluded from [`RunSpec::digest`] and from the JSON
    /// echo, so the same run requested with different deadlines shares one
    /// cache entry and one byte-identical body.
    pub deadline_ms: Option<u64>,
    /// Coherence protocol. `None` means the paper's MSI protocol; parsing
    /// canonicalizes an explicit `"protocol":"msi"` to `None` so both
    /// spellings share one digest, one cache entry and one echo body —
    /// and so every pre-protocol-era spec keeps its v1 digest.
    pub protocol: Option<Protocol>,
}

/// Seed of the synthetic commercial traces in the paper's evaluation suite,
/// and the serving default for [`RunSpec::seed`].
pub const SUITE_SEED: u64 = 0xD2E5_A25E;

impl Default for RunSpec {
    /// The serving default: FFT at tiny scale on the paper's 16-node
    /// machine with the default 1K-entry switch directory, the suite's
    /// commercial seed, no faults.
    fn default() -> Self {
        RunSpec {
            workload: "FFT".to_string(),
            scale: "tiny".to_string(),
            nodes: 16,
            sd_entries: Some(1024),
            seed: SUITE_SEED,
            faults: None,
            deadline_ms: None,
            protocol: None,
        }
    }
}

impl RunSpec {
    /// Canonical FNV-1a content digest (the serving cache key).
    ///
    /// Fields are folded in declared order, each as
    /// `name \0 value-encoding`: strings as their UTF-8 bytes followed by a
    /// `\0` terminator, integers as 8 little-endian bytes, options as a
    /// presence byte (`0`/`1`) followed by the value encoding when present.
    /// The encoding is length-delimited everywhere a field is
    /// variable-sized, so no two distinct specs share a byte stream.
    ///
    /// `deadline_ms` is *not* folded in: it changes when a request is
    /// willing to wait, never what the simulation computes, and folding it
    /// in would split the cache per deadline (and break body identity
    /// across deadline spellings).
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, DIGEST_DOMAIN);
        h = fold_str(h, b"workload", &self.workload);
        h = fold_str(h, b"scale", &self.scale);
        h = fold_u64(h, b"nodes", u64::from(self.nodes));
        h = fold_opt_u64(h, b"sd_entries", self.sd_entries.map(u64::from));
        h = fold_u64(h, b"seed", self.seed);
        h = match &self.faults {
            None => fnv1a(fnv1a(h, b"faults\0"), &[0]),
            Some(s) => fold_str(fnv1a(fnv1a(h, b"faults\0"), &[1]), b"", s),
        };
        // MSI (absent or explicit) folds nothing at all, so every
        // pre-protocol-era spec keeps its exact v1 byte stream and digest;
        // only the newer protocols extend the stream. The `parse` guarantee
        // that no protocol label is empty keeps the extension unambiguous.
        if let Some(p) = self.protocol {
            if p != Protocol::Msi {
                h = fold_str(h, b"protocol", p.as_str());
            }
        }
        h
    }

    /// The digest in the fixed-width hex form used in served documents.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }
}

fn fold_str(h: u64, name: &[u8], value: &str) -> u64 {
    let h = fnv1a(fnv1a(h, name), &[0]);
    fnv1a(fnv1a(h, value.as_bytes()), &[0])
}

fn fold_u64(h: u64, name: &[u8], value: u64) -> u64 {
    let h = fnv1a(fnv1a(h, name), &[0]);
    fnv1a(h, &value.to_le_bytes())
}

fn fold_opt_u64(h: u64, name: &[u8], value: Option<u64>) -> u64 {
    let h = fnv1a(fnv1a(h, name), &[0]);
    match value {
        None => fnv1a(h, &[0]),
        Some(v) => fnv1a(fnv1a(h, &[1]), &v.to_le_bytes()),
    }
}

impl ToJson for RunSpec {
    /// The canonical spec echo. `deadline_ms` is omitted on purpose: served
    /// bodies must be byte-identical for equal digests, and the deadline is
    /// not part of the digest.
    fn to_json(&self) -> JsonValue {
        let b = JsonValue::obj()
            .field("workload", self.workload.as_str())
            .field("scale", self.scale.as_str())
            .field("nodes", self.nodes)
            .field("sd_entries", self.sd_entries.map(u64::from))
            .field("seed", self.seed)
            .field("faults", self.faults.clone());
        // MSI is never echoed (it is canonicalized to `None` on parse), so
        // pre-protocol-era bodies stay byte-identical.
        match self.protocol {
            Some(p) if p != Protocol::Msi => b.field("protocol", p.as_str()).build(),
            _ => b.build(),
        }
    }
}

impl FromJson for RunSpec {
    /// Strict reconstruction: unknown fields are rejected (error message
    /// leads with ``unknown field `name` ``, which the server maps to a
    /// distinct machine-readable error code), wrong-typed fields are
    /// rejected, `workload` is required, everything else defaults.
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let JsonValue::Obj(fields) = v else {
            return Err(JsonError::new("run spec must be a JSON object"));
        };
        let mut spec = RunSpec::default();
        let mut saw_workload = false;
        for (key, val) in fields {
            match key.as_str() {
                "workload" => {
                    spec.workload = want_str(val, key)?;
                    saw_workload = true;
                }
                "scale" => spec.scale = want_str(val, key)?,
                "nodes" => spec.nodes = want_u32(val, key)?,
                "sd_entries" => {
                    spec.sd_entries = match val {
                        JsonValue::Null => None,
                        other => Some(want_u32(other, key)?),
                    }
                }
                "seed" => {
                    spec.seed = val
                        .as_u64()
                        .ok_or_else(|| JsonError::new("field `seed` must be an integer"))?
                }
                "faults" => {
                    spec.faults = match val {
                        JsonValue::Null => None,
                        JsonValue::Str(s) => Some(s.clone()),
                        _ => return Err(JsonError::new("field `faults` must be a string or null")),
                    }
                }
                "deadline_ms" => {
                    spec.deadline_ms = match val {
                        JsonValue::Null => None,
                        other => Some(other.as_u64().ok_or_else(|| {
                            JsonError::new("field `deadline_ms` must be an integer or null")
                        })?),
                    }
                }
                "protocol" => {
                    spec.protocol = match val {
                        JsonValue::Null => None,
                        other => {
                            let s = other.as_str().ok_or_else(|| {
                                JsonError::new("field `protocol` must be a string or null")
                            })?;
                            let p = Protocol::parse(s).ok_or_else(|| {
                                JsonError::new(format!(
                                    "field `protocol` has unknown value `{s}` \
                                     (expected msi|mesi|moesi|dls)"
                                ))
                            })?;
                            // Canonicalize: explicit MSI is the default.
                            (p != Protocol::Msi).then_some(p)
                        }
                    }
                }
                other => return Err(JsonError::new(format!("unknown field `{other}`"))),
            }
        }
        if !saw_workload {
            return Err(JsonError::new("missing field `workload`"));
        }
        Ok(spec)
    }
}

fn want_str(v: &JsonValue, key: &str) -> Result<String, JsonError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| JsonError::new(format!("field `{key}` must be a string")))
}

fn want_u32(v: &JsonValue, key: &str) -> Result<u32, JsonError> {
    v.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| JsonError::new(format!("field `{key}` must be a 32-bit integer")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_canonical_over_json_spelling() {
        // Same effective spec, three spellings: field order swapped,
        // defaults omitted, defaults explicit.
        let a = RunSpec::from_json(&JsonValue::parse(r#"{"workload":"FFT"}"#).unwrap()).unwrap();
        let b = RunSpec::from_json(
            &JsonValue::parse(r#"{"scale":"tiny","workload":"FFT","nodes":16}"#).unwrap(),
        )
        .unwrap();
        // 3538264670 == 0xD2E5_A25E, the default seed spelled explicitly.
        let c = RunSpec::from_json(
            &JsonValue::parse(r#"{"workload":"FFT","sd_entries":1024,"seed":3538264670}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn digest_separates_every_field() {
        let base = RunSpec::default();
        let variants = [
            RunSpec { workload: "TC".into(), ..base.clone() },
            RunSpec { scale: "reduced".into(), ..base.clone() },
            RunSpec { nodes: 4, ..base.clone() },
            RunSpec { sd_entries: None, ..base.clone() },
            RunSpec { sd_entries: Some(256), ..base.clone() },
            RunSpec { seed: 1, ..base.clone() },
            RunSpec { faults: Some("drop_ppm=100".into()), ..base.clone() },
            RunSpec { faults: Some(String::new()), ..base.clone() },
            RunSpec { protocol: Some(Protocol::Mesi), ..base.clone() },
            RunSpec { protocol: Some(Protocol::Moesi), ..base.clone() },
            RunSpec { protocol: Some(Protocol::Dls), ..base.clone() },
        ];
        let mut digests: Vec<u64> = variants.iter().map(RunSpec::digest).collect();
        digests.push(base.digest());
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), variants.len() + 1, "all variants must digest distinctly");
    }

    #[test]
    fn json_null_sd_means_base_machine_while_omission_means_default() {
        let omitted =
            RunSpec::from_json(&JsonValue::parse(r#"{"workload":"SOR"}"#).unwrap()).unwrap();
        assert_eq!(omitted.sd_entries, Some(1024));
        let explicit = RunSpec::from_json(
            &JsonValue::parse(r#"{"workload":"SOR","sd_entries":null}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(explicit.sd_entries, None);
        assert_ne!(omitted.digest(), explicit.digest());
    }

    #[test]
    fn from_json_rejects_unknown_and_wrong_typed_fields() {
        let unknown =
            RunSpec::from_json(&JsonValue::parse(r#"{"workload":"FFT","entires":512}"#).unwrap())
                .unwrap_err();
        assert!(unknown.msg.starts_with("unknown field `entires`"), "{unknown}");
        let wrong =
            RunSpec::from_json(&JsonValue::parse(r#"{"workload":7}"#).unwrap()).unwrap_err();
        assert!(wrong.msg.contains("`workload`"), "{wrong}");
        let missing =
            RunSpec::from_json(&JsonValue::parse(r#"{"scale":"tiny"}"#).unwrap()).unwrap_err();
        assert!(missing.msg.contains("missing field `workload`"), "{missing}");
        assert!(RunSpec::from_json(&JsonValue::parse("[1,2]").unwrap()).is_err());
    }

    #[test]
    fn json_roundtrip_preserves_digest() {
        let spec = RunSpec {
            workload: "TPC-C".into(),
            scale: "reduced".into(),
            nodes: 16,
            sd_entries: None,
            seed: 42,
            faults: Some("drop_ppm=2000,seed=7".into()),
            deadline_ms: None,
            protocol: Some(Protocol::Moesi),
        };
        let back = RunSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.digest(), spec.digest());
    }

    #[test]
    fn deadline_is_accepted_but_never_in_digest_or_echo() {
        let with = RunSpec::from_json(
            &JsonValue::parse(r#"{"workload":"FFT","deadline_ms":250}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(with.deadline_ms, Some(250));
        let without =
            RunSpec::from_json(&JsonValue::parse(r#"{"workload":"FFT"}"#).unwrap()).unwrap();
        // Scheduling directive, not simulation input: one cache entry, one
        // body, regardless of deadline spelling.
        assert_eq!(with.digest(), without.digest());
        assert_eq!(with.to_json().dump(), without.to_json().dump());
        assert!(!with.to_json().dump().contains("deadline"));
        let null = RunSpec::from_json(
            &JsonValue::parse(r#"{"workload":"FFT","deadline_ms":null}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(null.deadline_ms, None);
        assert!(RunSpec::from_json(
            &JsonValue::parse(r#"{"workload":"FFT","deadline_ms":"soon"}"#).unwrap()
        )
        .is_err());
    }

    /// The protocol field must be *scheduling-compatible* the way
    /// `deadline_ms` is body-compatible: `"protocol":"msi"`, explicit
    /// `null` and an absent field are one spec — one digest, one echo —
    /// while the newer protocols digest distinctly. This is what keeps
    /// every pre-protocol-era digest (and the committed BENCH baselines
    /// keyed on them) valid.
    #[test]
    fn protocol_msi_and_absent_are_one_spec() {
        let absent =
            RunSpec::from_json(&JsonValue::parse(r#"{"workload":"FFT"}"#).unwrap()).unwrap();
        let msi = RunSpec::from_json(
            &JsonValue::parse(r#"{"workload":"FFT","protocol":"msi"}"#).unwrap(),
        )
        .unwrap();
        let null =
            RunSpec::from_json(&JsonValue::parse(r#"{"workload":"FFT","protocol":null}"#).unwrap())
                .unwrap();
        assert_eq!(msi.protocol, None, "explicit msi must canonicalize to None");
        assert_eq!(null.protocol, None);
        assert_eq!(absent.digest(), msi.digest());
        assert_eq!(absent.digest(), null.digest());
        assert_eq!(absent.to_json().dump(), msi.to_json().dump());
        assert!(!msi.to_json().dump().contains("protocol"));
        // Constructing Some(Msi) directly (bypassing parse) must still
        // digest and echo as the canonical spec.
        let direct = RunSpec { protocol: Some(Protocol::Msi), ..RunSpec::default() };
        assert_eq!(direct.digest(), RunSpec::default().digest());
        assert_eq!(direct.to_json().dump(), RunSpec::default().to_json().dump());

        let mesi = RunSpec::from_json(
            &JsonValue::parse(r#"{"workload":"FFT","protocol":"mesi"}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(mesi.protocol, Some(Protocol::Mesi));
        assert_ne!(mesi.digest(), absent.digest());
        assert!(mesi.to_json().dump().contains(r#""protocol":"mesi""#));
        let err = RunSpec::from_json(
            &JsonValue::parse(r#"{"workload":"FFT","protocol":"mosi"}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.msg.contains("`protocol`"), "{err}");
        assert!(RunSpec::from_json(
            &JsonValue::parse(r#"{"workload":"FFT","protocol":3}"#).unwrap()
        )
        .is_err());
    }

    /// Pinned digests of the standard-run configurations. These values are
    /// cache keys: if this test fails, the canonical encoding changed, and
    /// every externally persisted digest (cached result, telemetry join
    /// key) silently stops matching. Bump the [`DIGEST_DOMAIN`] version
    /// when changing the encoding on purpose, and re-pin.
    #[test]
    fn digests_of_standard_runs_are_pinned() {
        let pinned = [
            ("FFT", "da9fa70f0d0b9a03"),
            ("TC", "b708ea78134e16b4"),
            ("SOR", "910d88788264367f"),
            ("FWA", "add84ca142f4771d"),
            ("GAUSS", "74a3f3042b6a3e8c"),
            ("TPC-C", "87da317e4225e5e8"),
            ("TPC-D", "cf2ab89064e282eb"),
        ];
        for (workload, hex) in pinned {
            let spec = RunSpec { workload: workload.into(), ..RunSpec::default() };
            assert_eq!(spec.digest_hex(), hex, "digest drift for default {workload} run");
        }
        let no_sd = RunSpec { sd_entries: None, ..RunSpec::default() };
        assert_eq!(no_sd.digest_hex(), "8fb17a3bac40e8f6", "digest drift for SD-less run");
        let big = RunSpec { nodes: 64, sd_entries: Some(4096), seed: 42, ..RunSpec::default() };
        assert_eq!(big.digest_hex(), "bce9d5e004ea73f6", "digest drift for 64-node run");
    }
}
