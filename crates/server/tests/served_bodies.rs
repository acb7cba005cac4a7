//! Served-body identity: the FNV-1a digest of every body `/run` serves for
//! the seven catalogue workloads at tiny scale, on the base machine and
//! on the paper's 1K-entry switch directories, plus the two commercial
//! traces at the smallest and largest directory sizes. A change to the
//! cache or directory arrays must leave every served byte unchanged, so
//! none of these digests may move.

use dresar_bench::CATALOGUE;
use dresar_types::{fnv1a, RunSpec, FNV_OFFSET};

/// One spec's validated execution, digested.
fn body_digest(spec: &RunSpec) -> String {
    let validated = dresar_server::validate(spec).expect("spec validates");
    let body = validated.execute().expect("spec executes");
    format!("{:016x}", fnv1a(FNV_OFFSET, body.as_bytes()))
}

fn tiny(workload: &str, sd_entries: Option<u32>) -> RunSpec {
    RunSpec { workload: workload.into(), scale: "tiny".into(), sd_entries, ..RunSpec::default() }
}

/// `(workload, sd_entries, body digest)`; `None` is the base machine.
const PINNED: [(&str, Option<u32>, &str); 18] = [
    ("FFT", None, "a223862fb801b134"),
    ("FFT", Some(1024), "d1787940e69c21e7"),
    ("TC", None, "57eb8ea8572723d3"),
    ("TC", Some(1024), "6ac2da28a000edc0"),
    ("SOR", None, "eee80f1a76b714be"),
    ("SOR", Some(1024), "b99f69547a161b85"),
    ("FWA", None, "807b6ac2f65d41d0"),
    ("FWA", Some(1024), "033b08009647238c"),
    ("GAUSS", None, "d855611fe1f39163"),
    ("GAUSS", Some(1024), "deb30f70fd40b8eb"),
    ("TPC-C", None, "08e66c3a9eb03170"),
    ("TPC-C", Some(1024), "89cd82fa8611a976"),
    ("TPC-D", None, "99f8e82ec39a6dd5"),
    ("TPC-D", Some(1024), "7fed5c98da83ddc1"),
    ("TPC-C", Some(256), "4f5df032a737fc44"),
    ("TPC-C", Some(2048), "f00006807949b1cd"),
    ("TPC-D", Some(256), "3dcf01a56c741337"),
    ("TPC-D", Some(2048), "03a3075c02a1408f"),
];

#[test]
fn pinned_specs_cover_the_catalogue() {
    for entry in &CATALOGUE {
        for sd in [None, Some(1024)] {
            assert!(
                PINNED.iter().any(|&(w, s, _)| w == entry.label && s == sd),
                "{} at {sd:?} is not pinned",
                entry.label
            );
        }
    }
}

#[test]
fn served_bodies_are_pinned() {
    let got: Vec<String> = PINNED.iter().map(|&(w, sd, _)| body_digest(&tiny(w, sd))).collect();
    let mismatches: Vec<String> = PINNED
        .iter()
        .zip(&got)
        .filter(|((_, _, want), got)| got != want)
        .map(|((w, sd, want), got)| format!("{w} sd {sd:?}: got {got}, pinned {want}"))
        .collect();
    assert!(mismatches.is_empty(), "served bodies moved:\n{}", mismatches.join("\n"));
}
