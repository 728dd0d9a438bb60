//! E13 — graceful degradation under link faults: fleet accuracy and the
//! degradation-ladder mode mix as a seeded fault injector sweeps from a
//! healthy link to a fully dead one.
//!
//! A prior-covered fleet of edge devices runs fetch→fit→report rounds
//! through the real `EdgeRuntime` (circuit breaker, stale-prior cache,
//! local-ERM terminal fallback) over in-memory faulty links. Expected
//! shape: accuracy falls monotonically from the all-fresh ceiling toward
//! the local-only ERM floor and never sinks below it; the mode mix walks
//! fresh → stale → local as the fault rate rises; at rate 1.0 the fleet
//! *is* the floor (bit-identical local fits). The `min-margin` column is
//! the worst per-reading accuracy minus that device's own floor — the
//! ladder invariant says it is never negative.

use dre_bench::degraded::{
    degraded_scenario, readings_below_floor, run_degraded_rounds, spawn_degraded_fleet,
};
use dre_bench::{fmt_f, Table};
use dro_edge::ModeShares;

const DEVICES: usize = 6;
const ROUNDS: usize = 8;
const FLEET_SEED: u64 = 1;

fn main() {
    let sc = degraded_scenario(1_300, DEVICES);
    let floor = sc.mean_floor();

    let mut table = Table::new(
        "E13",
        "degraded-mode fleet: accuracy and mode mix vs. link fault rate",
        &[
            "fault-rate",
            "mean-acc",
            "min-margin",
            "fresh",
            "stale",
            "local",
            "fetch-fail",
            "short-circ",
        ],
    );

    let mut below_floor_total = 0;
    for rate in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut fleet = spawn_degraded_fleet(&sc, rate, FLEET_SEED);
        let readings = run_degraded_rounds(&sc, &mut fleet, ROUNDS);
        below_floor_total += readings_below_floor(&readings);

        let mean_acc = readings.iter().map(|r| r.accuracy).sum::<f64>() / readings.len() as f64;
        let min_margin = readings
            .iter()
            .map(|r| r.accuracy - r.floor_acc)
            .fold(f64::INFINITY, f64::min);
        let mut shares = ModeShares::default();
        for r in &readings {
            shares.push(r.mode);
        }
        let (mut fetch_failures, mut short_circuits) = (0u64, 0u64);
        for rt in &fleet {
            let c = rt.counters();
            fetch_failures += c.fetch_failures;
            short_circuits += c.short_circuits;
        }

        table.push_row(vec![
            format!("{rate:.1}"),
            fmt_f(mean_acc),
            fmt_f(min_margin),
            shares.fresh.to_string(),
            shares.stale.to_string(),
            shares.local.to_string(),
            fetch_failures.to_string(),
            short_circuits.to_string(),
        ]);
    }

    // The floor itself, for reference: what the fleet converges to when
    // the cloud is unreachable forever.
    table.push_row(vec![
        "local-only".into(),
        fmt_f(floor),
        fmt_f(0.0),
        "0".into(),
        "0".into(),
        (DEVICES * ROUNDS).to_string(),
        "-".into(),
        "-".into(),
    ]);
    table.emit();

    println!(
        "readings below the local-only floor across the sweep: {below_floor_total} \
         (the degradation ladder guarantees 0)"
    );
    assert_eq!(
        below_floor_total, 0,
        "degradation ladder violated: a fit scored below its device's floor"
    );
}
