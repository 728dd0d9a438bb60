//! Scale gates for the flat-state event executor: a million-device
//! scenario must finish in seconds, and its steady-state hot loop must not
//! touch the allocator.
//!
//! The 100k/1M tests are ignored under debug builds (an unoptimized
//! executor is an order of magnitude slower); CI runs them in release
//! via `cargo test --release -p dre-integration --test scale -- --ignored`.

use std::time::Instant;

use dre_alloc_count::{allocations, CountingAlloc};
use dre_edgesim::{
    ComputeModel, DeviceSpec, Link, Scenario, SimDuration, Strategy, SwitchConfig, Topology,
};

/// Counts allocator calls, so the tests can assert the executor's steady
/// state is allocation-free.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A prior-transfer fleet over the one-big-switch fabric, sized so every
/// message is a single segment and nothing is dropped: the pure
/// executor-throughput shape the events/sec benchmark also uses.
fn fleet(n: usize) -> Scenario {
    let topo = Topology::one_big_switch(Link::new_ms(1.0, 1e12)).with_switch(SwitchConfig {
        // Roomy enough that a full-fleet incast queues instead of dropping.
        queue_capacity: 2 * n as u32 + 16,
        // The cloud drains one frame per microsecond; a fleet-sized queue
        // takes ~n µs, so the RTO must sit far above that to stay quiet.
        rto: SimDuration::from_secs_f64(3600.0),
        ..SwitchConfig::default()
    });
    let mut sc = Scenario::new(ComputeModel::default()).with_topology(topo);
    for _ in 0..n {
        sc.add_device(DeviceSpec {
            link: Link::new_ms(5.0, 1e6),
            strategy: Strategy::PriorTransfer {
                samples: 100,
                dim: 8,
                iterations: 50,
                em_rounds: 4,
                prior_components: 2,
            },
        });
    }
    sc
}

fn assert_clean_completion(n: usize, r: &dre_edgesim::SimReport) {
    assert_eq!(r.devices.len(), n);
    assert_eq!(
        r.messages_dropped, 0,
        "the queue is sized to absorb the incast"
    );
    assert_eq!(r.bytes_retransmitted, 0, "nothing may time out");
    assert!(r.devices.iter().all(|d| d.completion.as_micros() > 0));
    // Every device runs the full request → ack → payload → ack → EM
    // pipeline; the pinned single-device trace executes 21 events.
    assert!(r.events_executed >= 20 * n as u64);
}

/// Always-on sanity tier: ten thousand devices through the full fabric,
/// fast enough for debug test runs.
#[test]
fn ten_thousand_devices_complete_cleanly() {
    let n = 10_000;
    let r = fleet(n).run();
    assert_clean_completion(n, &r);
}

/// CI smoke tier (release): a hundred thousand devices.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only scale gate")]
fn hundred_thousand_devices_complete_cleanly() {
    let n = 100_000;
    let start = Instant::now();
    let r = fleet(n).run();
    assert_clean_completion(n, &r);
    assert!(
        start.elapsed().as_secs() < 30,
        "100k devices took {:?}",
        start.elapsed()
    );
}

/// The headline gate: a million devices in under a minute, with an
/// allocation-free steady state — the run may allocate only its pre-sized
/// setup structures (event heap, device table, port array, slabs), on the
/// order of dozens of calls, not one of its ~21 million events.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only scale gate")]
fn million_devices_run_in_seconds_without_steady_state_allocation() {
    let n = 1_000_000;
    let sc = fleet(n);
    let start = Instant::now();
    let (allocs, r) = allocations(|| sc.run());
    let elapsed = start.elapsed();
    assert_clean_completion(n, &r);
    assert!(
        elapsed.as_secs() < 60,
        "a million devices took {elapsed:?}, budget is 60 s"
    );
    // ~21M events executed; allocation must be O(setup), not O(events)
    // and not O(buckets): the pre-sized setup makes a few dozen calls.
    assert!(
        allocs < 100,
        "steady state allocated: {allocs} allocator calls for {} events",
        r.events_executed
    );
    let events_per_sec = r.events_executed as f64 / elapsed.as_secs_f64();
    eprintln!(
        "1M devices: {} events in {elapsed:?} ({events_per_sec:.0} events/sec, {allocs} allocator calls)",
        r.events_executed
    );
}
