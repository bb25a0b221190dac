//! `BENCHMARK.json` at the repository root must name exactly the
//! workloads and metrics this benchmark reports, with the same units.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::Workload;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"name"` values of the objects in the JSON array under `key`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let section = &json[start..];
    let end = section.find(']').expect("array end");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn workloads_and_metrics_match_the_code() {
    let json = benchmark_json();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_under(&json, "workloads"), workloads);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_under(&json, "end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_under(&json, "per_layer"), layers);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            json.contains(&format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
            )),
            "{name} must have unit {unit}"
        );
    }
}
