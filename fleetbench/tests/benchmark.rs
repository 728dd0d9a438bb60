//! The benchmark's own tests: seeded inputs are deterministic, the printed
//! metric names are the ones `BENCHMARK.json` declares, and the traced run's
//! spans cover the measured wall time of every workload.
//!
//! Run with `cargo test --release --manifest-path fleetbench/Cargo.toml`.

use std::time::Duration;

use dre_fleetbench::report::{self, END_TO_END, PER_LAYER};
use dre_fleetbench::trace;
use dre_fleetbench::workloads::{
    fleet_round::FleetRound, fleet_sim::FleetSim, measure, plane_fetch::PlaneFetch,
    report_ingest::ReportIngest, Workload, NAMES,
};

/// Input digests for every workload at `seed`, with small episode counts.
fn digests(seed: u64) -> [u64; 4] {
    [
        FleetRound::with_episodes(seed, 2).digest(),
        ReportIngest::with_episodes(seed, 2).digest(),
        PlaneFetch::with_episodes(seed, 2).digest(),
        FleetSim::with_episodes(seed, 2).digest(),
    ]
}

#[test]
fn inputs_are_deterministic_per_seed() {
    let a = digests(11);
    assert_eq!(a, digests(11), "the same seed must give identical inputs");
    let b = digests(12);
    for (i, name) in NAMES.iter().enumerate() {
        assert_ne!(a[i], b[i], "{name}: different seeds gave identical inputs");
    }
}

/// `(name, unit)` pairs of one metric array in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[body.find('[').expect("an array")..body.find(']').expect("a closed array")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\""))
            .expect("every metric has the key");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("a string value") + 1;
        let close = rest[open..].find('"').expect("a closed string") + open;
        rest[open..close].to_string()
    };
    body.split('}')
        .filter(|e| e.contains("\"name\""))
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), table(&END_TO_END));
    assert_eq!(declared("per_layer"), table(&PER_LAYER));
    // The result line prints exactly the table, in order.
    let line = report::result_line(true, 1, 0, &END_TO_END, &Default::default());
    for (name, unit) in END_TO_END {
        assert!(line.contains(&format!("\"{name}\":{{\"value\":0.0,\"unit\":\"{unit}\"}}")));
    }
    assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
}

/// One traced pass of `workload`; returns the share of the measured wall
/// time that the stage spans (children of `op.*` spans) cover.
fn coverage(workload: &dyn Workload) -> f64 {
    trace::enable();
    let out = measure(workload, Duration::ZERO);
    trace::disable();
    assert!(
        out.problems.is_empty(),
        "correctness checks failed: {:?}",
        out.problems
    );
    assert_eq!(out.failed, 0);
    trace::stage_ns() as f64 / (out.measured_s() * 1e9)
}

#[test]
fn spans_cover_the_measured_wall_time() {
    let workloads: [(&str, Box<dyn Workload>); 4] = [
        ("fleet_round", Box::new(FleetRound::with_episodes(3, 1))),
        ("report_ingest", Box::new(ReportIngest::with_episodes(3, 1))),
        ("plane_fetch", Box::new(PlaneFetch::with_episodes(3, 1))),
        ("fleet_sim", Box::new(FleetSim::with_episodes(3, 1))),
    ];
    for (name, w) in workloads {
        let c = coverage(w.as_ref());
        assert!(
            (0.9..=1.0).contains(&c),
            "{name}: spans cover {c:.4} of the measured wall time"
        );
    }
}
