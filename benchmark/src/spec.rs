//! The benchmark's declaration, `BENCHMARK.json`, compiled into the binary
//! so the metric names, units and bounds have one source.

use dresar_types::JsonValue;

const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key).unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
}

fn text(v: &JsonValue, key: &str) -> String {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a string"))
        .into()
}

fn list<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    field(v, key).as_arr().unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a list"))
}

fn metrics(doc: &JsonValue, key: &str) -> Vec<MetricSpec> {
    list(doc, key)
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(JsonValue::as_f64),
        })
        .collect()
}

/// Parses the compiled-in declaration. It is part of the source, so a
/// malformed one is a build defect and panics.
pub fn load() -> Spec {
    let doc = JsonValue::parse(SPEC_JSON).expect("BENCHMARK.json is valid JSON");
    Spec {
        run_seconds: field(&doc, "run_seconds").as_u64().expect("run_seconds is a whole number"),
        workloads: list(&doc, "workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}
