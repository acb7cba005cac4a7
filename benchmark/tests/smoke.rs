//! Runs every workload at tiny size and checks the result against the
//! declaration in `BENCHMARK.json`.

use dresar_types::JsonValue;
use std::process::Command;

fn names(list: &JsonValue) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(JsonValue::as_str).expect("a name").to_string())
        .collect()
}

#[test]
fn smoke_run_emits_exactly_the_declared_metrics_without_failures() {
    let spec = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid declaration");
    let workloads = names(spec.get("workloads").expect("workloads"));
    for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = names(spec.get(kind).expect("metric list"));
        let out = Command::new(env!("CARGO_BIN_EXE_dresar_benchmark"))
            .args(["--smoke", "--trace", trace])
            .output()
            .expect("run the benchmark");
        assert!(out.status.success(), "smoke run failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
        let doc = JsonValue::parse(stdout.lines().last().expect("output")).expect("JSON result");
        for w in &workloads {
            let result = doc.get("workloads").and_then(|r| r.get(w)).expect("every workload ran");
            assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true), "{w}");
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0), "{w}");
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1), "{w}");
            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: no metrics object")
            };
            let emitted: Vec<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(emitted, declared, "{w} with --trace {trace}");
            for (name, m) in metrics {
                assert!(
                    name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{w}: bad metric name {name}"
                );
                let v = m.get("value").and_then(JsonValue::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{w}: {name} = {v:?}");
            }
        }
    }
}
