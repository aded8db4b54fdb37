//! Tiny-scale smoke of every workload, untraced and traced: the run
//! emits exactly the metrics `BENCHMARK.json` declares for that mode,
//! each with a unit and under a name matching `[A-Za-z0-9_.-]+`, and the
//! result line carries them all.

use adsm_apps::Scale;
use adsm_perfbench::workload::WORKLOADS;
use adsm_perfbench::{run, shuffled, Options, SETUP_REPEATS};

/// The metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is a JSON list")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| {
            let value = &entry[entry.find('"').expect("a quoted name") + 1..];
            value[..value.find('"').expect("a closed quote")].to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn check_workload(index: usize, trace: bool) {
    let w = WORKLOADS[index].at_scale(Scale::Tiny);
    let out = run(&Options {
        workload: w,
        seed: 7,
        seconds: 0.0,
        trace,
    });
    assert!(out.correct, "{}: {:?}", w.name, out.failures);
    assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.failures);
    let cells = w.cells().len() as u64;
    let runs_per_cell = if trace { 2 } else { 1 };
    assert_eq!(
        out.attempted,
        SETUP_REPEATS as u64 + cells * runs_per_cell,
        "{}",
        w.name
    );
    let mut emitted: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    for m in &out.metrics {
        assert!(
            valid_name(&m.name),
            "{}: bad metric name {:?}",
            w.name,
            m.name
        );
        assert!(!m.unit.is_empty(), "{}: {} has no unit", w.name, m.name);
        assert!(m.value.is_finite(), "{}: {} = {}", w.name, m.name, m.value);
    }
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    emitted.sort();
    want.sort();
    assert_eq!(
        emitted, want,
        "{}: emitted metrics differ from BENCHMARK.json",
        w.name
    );
    let json = out.json();
    for m in &out.metrics {
        assert!(
            json.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{}: {} missing from the result line",
            w.name,
            m.name
        );
    }
    if trace {
        assert!(
            !out.spans.is_empty(),
            "{}: a traced run records spans",
            w.name
        );
    }
}

#[test]
fn sim_paper8_smoke() {
    check_workload(0, false);
    check_workload(0, true);
}

#[test]
fn threads_paper2_smoke() {
    check_workload(1, false);
    check_workload(1, true);
}

#[test]
fn threads_small2_smoke() {
    check_workload(2, false);
    check_workload(2, true);
}

#[test]
fn end_to_end_metrics_include_setup_time() {
    assert!(declared("end_to_end").iter().any(|n| n == "setup_s"));
}

#[test]
fn seeded_order_is_a_repeatable_permutation() {
    let a = shuffled(40, 11);
    assert_eq!(a, shuffled(40, 11));
    assert_ne!(a, shuffled(40, 12));
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..40).collect::<Vec<_>>());
}
