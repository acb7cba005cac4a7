//! The committed perf trajectory, `BENCH_trajectory.json`, keeps its shape:
//! one entry per measured change, every benchmark workload and end-to-end
//! metric in each, and only verdicts `dresar_benchmark compare` prints.
//! No value is checked; host timings are noisy.

use dresar_workspace::types::JsonValue;

const WORKLOADS: [&str; 5] = ["fft16", "sor256", "tpc-trace", "fft-observed", "serve-mix"];
const METRICS: [&str; 3] = ["sim_refs_per_s", "setup_s", "peak_rss_mb"];
const VERDICTS: [&str; 4] = ["gain", "regression", "no-change", "unresolved"];
const NOT_MEASURED: &str = "not measured";

fn trajectory() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_trajectory.json");
    let text = std::fs::read_to_string(path).expect("BENCH_trajectory.json is committed");
    JsonValue::parse(&text).expect("BENCH_trajectory.json parses")
}

fn field<'a>(v: &'a JsonValue, key: &str, at: &str) -> &'a JsonValue {
    v.get(key).unwrap_or_else(|| panic!("{at}: no `{key}`"))
}

fn is_null(v: &JsonValue) -> bool {
    matches!(v, JsonValue::Null)
}

/// A metric is "not measured" or `{parent, change, won, verdict}`.
fn check_metric(v: &JsonValue, pairs: u64, at: &str) {
    if v.as_str() == Some(NOT_MEASURED) {
        return;
    }
    for side in ["parent", "change"] {
        let x = field(v, side, at).as_f64().unwrap_or_else(|| panic!("{at}: {side} not a number"));
        assert!(x.is_finite() && x >= 0.0, "{at}: {side} = {x}");
    }
    let won = field(v, "won", at);
    if !is_null(won) {
        let won = won.as_u64().unwrap_or_else(|| panic!("{at}: won not a count"));
        assert!(won <= pairs, "{at}: {won} won of {pairs} pairs");
    }
    let verdict = field(v, "verdict", at);
    if !is_null(verdict) {
        let verdict = verdict.as_str().unwrap_or_else(|| panic!("{at}: verdict not a string"));
        assert!(VERDICTS.contains(&verdict), "{at}: `{verdict}` is no verdict compare prints");
    }
}

#[test]
fn trajectory_lists_every_workload_and_metric_per_entry() {
    let doc = trajectory();
    let names: Vec<&str> = field(&doc, "workloads", "document")
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(|w| w.as_str())
        .collect();
    assert_eq!(names, WORKLOADS);
    for metric in METRICS {
        assert!(field(&doc, "metrics", "document").get(metric).is_some(), "no unit for {metric}");
    }
    let entries = field(&doc, "entries", "document").as_arr().expect("entries is an array");
    assert!(!entries.is_empty());
    let mut last_pr = 0;
    for e in entries {
        let pr = field(e, "pr", "entry").as_u64().expect("pr is a number");
        let at = format!("PR {pr}");
        assert!(pr >= last_pr, "{at}: entries go in PR order");
        last_pr = pr;
        for key in ["title", "commit", "date", "host"] {
            let s = field(e, key, &at).as_str().unwrap_or_else(|| panic!("{at}: {key}"));
            assert!(!s.is_empty(), "{at}: empty {key}");
        }
        let commit = field(e, "commit", &at).as_str().unwrap();
        assert!(commit.len() >= 7 && commit.bytes().all(|b| b.is_ascii_hexdigit()), "{at}");
        let date = field(e, "date", &at).as_str().unwrap();
        assert!(date.len() == 10 && date.as_bytes()[4] == b'-' && date.as_bytes()[7] == b'-');
        for key in ["seed", "seconds", "pairs"] {
            field(e, key, &at).as_u64().unwrap_or_else(|| panic!("{at}: {key} is not a count"));
        }
        let workloads = field(e, "workloads", &at);
        for name in WORKLOADS {
            let w = field(workloads, name, &at);
            let at = format!("{at} {name}");
            let pairs = field(w, "pairs", &at).as_u64().expect("pairs is a count");
            for metric in METRICS {
                check_metric(field(w, metric, &at), pairs, &format!("{at} {metric}"));
            }
            if name == "serve-mix" {
                let serve = field(w, "serve", &at);
                if serve.as_str() != Some(NOT_MEASURED) {
                    let JsonValue::Obj(latencies) = serve else { panic!("{at}: serve") };
                    assert!(!latencies.is_empty(), "{at}: no serve latency");
                    for (metric, v) in latencies {
                        check_metric(v, pairs, &format!("{at} serve {metric}"));
                    }
                }
            }
        }
    }
}
