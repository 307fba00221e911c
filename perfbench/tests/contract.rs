//! `BENCHMARK.json` at the repository root names exactly the metrics this
//! benchmark prints.

use diq_perfbench::common::Layers;
use diq_perfbench::report::{Report, END_TO_END};
use serde::Value;

fn names(doc: &Value, section: &str) -> Vec<String> {
    let Some(Value::Seq(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{section} entry without a name: {other:?}"),
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(names(&doc, "end_to_end"), END_TO_END);
    let mut report = Report::default();
    Layers::default().emit(&mut report);
    let per_layer: Vec<String> = report.metrics.into_iter().map(|m| m.name).collect();
    assert_eq!(names(&doc, "per_layer"), per_layer);
}
