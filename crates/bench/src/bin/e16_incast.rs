//! E16 — prior re-registration incast: the whole fleet re-fetches the DP
//! prior at `t = 0` through one big switch, and the only thing standing
//! between the devices and congestion collapse is the switch's port queue
//! capacity.
//!
//! This is the first experiment the event-driven core makes honest: the
//! legacy simulator gave every device a private lossless pipe, so a
//! million simultaneous prior fetches cost nothing but serialization
//! time. Here every request incasts into the cloud's ingress queue and
//! every payload leaves through the cloud's uplink queue; frames beyond
//! the drop-tail capacity are lost and must be retransmitted by the
//! go-back-N transport, and devices whose retry budget runs out fall back
//! to local-only ERM — the degradation ladder's bottom rung, visible in
//! the report as `FitMode::LocalOnly`.
//!
//! Sweep: fleet size {1k, 10k, 100k} × queue capacity {64, 1024,
//! fleet-sized}, each under a 0.5 % Bernoulli device-link loss at two
//! seeds. Reported: exact fabric drop rate (`dropped / (dropped +
//! forwarded)`), retransmitted kilobytes, local-fallback count, and
//! p50/p99 device completion. Every configuration is run twice and the
//! two reports must match bit-for-bit (every per-device f64 included) —
//! the determinism the executor guarantees.
//!
//! Expected shape: at fleet-sized queues the fabric absorbs the incast
//! (drop rate ≈ the injected link loss, no fallbacks); at 64 frames the
//! big fleets collapse — drop rates past 50 %, retransmitted volume
//! rivaling the useful volume, and a long p99 tail of devices that only
//! finish on their backed-off retries or give up entirely.

use dre_bench::Table;
use dre_edgesim::{
    prior_transfer_bytes, ComputeModel, DeviceSpec, FitMode, Link, LossModel, RetryModel, Scenario,
    SimDuration, Strategy, SwitchConfig, Topology,
};

/// The re-registration scenario: `n` devices, all fetching the prior at
/// `t = 0` through a shared switch with the given queue capacity.
fn incast(n: usize, queue_capacity: u32, seed: u64) -> Scenario {
    // A 1 Gbps cloud access link: the queues, not the wire, decide.
    let topo = Topology::one_big_switch(Link::new_ms(1.0, 1.25e8))
        .with_switch(SwitchConfig {
            queue_capacity,
            // The RTO must sit above the fleet-sized queue's worst-case
            // drain (~0.75 s at 100k devices) or every run — even the
            // roomy-queue baseline — degenerates into spurious
            // retransmission; 30 s keeps timeouts meaning "dropped".
            rto: SimDuration::from_secs_f64(30.0),
            ..SwitchConfig::default()
        })
        .with_device_loss(LossModel::Bernoulli { loss: 0.005, seed });
    let mut sc = Scenario::new(ComputeModel::default())
        .with_topology(topo)
        // The application deadline brackets the transport's backed-off
        // timers; three silent attempts and the device trains locally.
        .with_retry(RetryModel {
            timeout: SimDuration::from_secs_f64(120.0),
            max_attempts: 3,
        });
    for _ in 0..n {
        sc.add_device(DeviceSpec {
            // 10 Mbps access, 5 ms one way: LTE-class edge devices.
            link: Link::new_ms(5.0, 1.25e6),
            strategy: Strategy::PriorTransfer {
                samples: 200,
                dim: 8,
                iterations: 60,
                em_rounds: 4,
                prior_components: 2,
            },
        });
    }
    sc
}

/// `q`-th percentile (0..=1) of device completion times, in seconds.
fn completion_percentile(sorted_us: &[u64], q: f64) -> f64 {
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64 / 1e6
}

fn main() {
    println!(
        "prior payload on the wire: {} B (measured dre-serve frame, 2 components, dim 8)",
        prior_transfer_bytes(2, 8)
    );
    let mut table = Table::new(
        "E16",
        "re-registration incast: fabric drop rate and completion tail vs. switch queue capacity",
        &[
            "fleet",
            "queue",
            "seed",
            "drop-%",
            "retx-KB",
            "fallbacks",
            "p50-s",
            "p99-s",
            "makespan-s",
        ],
    );
    for fleet in [1_000usize, 10_000, 100_000] {
        // 64 frames is a collapse-inducing toy, 1024 a plausible shallow
        // switch buffer, `2n + 16` the "buffer the whole incast" upper
        // bound the scale tests use.
        for queue_capacity in [64, 1_024, 2 * fleet as u32 + 16] {
            for seed in [17u64, 99] {
                let sc = incast(fleet, queue_capacity, seed);
                let report = sc.run();
                // The executor's determinism claim, checked wholesale: a
                // rerun of the identical scenario must reproduce every
                // counter and every per-device f64 bit-for-bit.
                assert_eq!(sc.run(), report, "rerun diverged at seed {seed}");
                let offered = report.messages_dropped + report.frames_forwarded;
                let drop_rate = report.messages_dropped as f64 / offered as f64;
                let fallbacks = report
                    .devices
                    .iter()
                    .filter(|d| d.mode == FitMode::LocalOnly)
                    .count();
                let mut completions: Vec<u64> = report
                    .devices
                    .iter()
                    .map(|d| d.completion.as_micros())
                    .collect();
                completions.sort_unstable();
                table.push_row(vec![
                    fleet.to_string(),
                    queue_capacity.to_string(),
                    seed.to_string(),
                    format!("{:.2}", drop_rate * 100.0),
                    format!("{:.1}", report.bytes_retransmitted as f64 / 1024.0),
                    fallbacks.to_string(),
                    format!("{:.2}", completion_percentile(&completions, 0.50)),
                    format!("{:.2}", completion_percentile(&completions, 0.99)),
                    format!("{:.2}", report.makespan.as_secs_f64()),
                ]);
            }
        }
    }
    table.emit();
}
