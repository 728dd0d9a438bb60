//! E9 — communication and latency: prior transfer vs. raw-data upload vs.
//! local-only, in the event-driven simulator, using the *actual* serialized
//! size of the fitted DP prior.
//!
//! Two cloud profiles bracket reality: a dedicated hyperscale cloud (fast,
//! never the bottleneck) and a shared regional edge server (modest compute
//! that queues under fleet load). Expected shape: prior transfer moves one
//! to two orders of magnitude fewer bytes than raw upload in every case,
//! its makespan is flat in fleet size, and it wins outright once the cloud
//! is contended. A second table turns on the connection model and compares
//! the serving layer's two client modes: fresh-per-request pays a
//! handshake round trip per message, keep-alive pays once per device
//! round — bytes identical, latency not. A third table replays the
//! prior-transfer round through the one-big-switch fabric: transport acks
//! and retransmissions surface in the byte totals, and the makespan grows
//! with fleet size as the cloud's shared ports queue — congestion the
//! private-pipe model cannot represent.

use dre_bench::{standard_cloud, standard_family, Table};
use dre_edgesim::{
    model_report_bytes, prior_transfer_bytes, ClientMode, ComputeModel, DeviceSpec, Link,
    RetryModel, Scenario, SimDuration, Strategy, SwitchConfig, Topology, ACK_BYTES,
};

fn main() {
    let (family, mut rng) = standard_family(909);
    let cloud = standard_cloud(&family, 40, 1.0, &mut rng);
    let prior_components = cloud.prior().num_components();

    // A digits-scale workload: 64 features, 500 local samples — raw upload
    // is ~256 KB, the framed prior a few KB per the measured size below.
    let dim = 64;
    let samples = 500;
    println!(
        "fitted prior: {} components → {} bytes on the wire at dim {} \
         (measured dre-serve frame size, not an assumed constant)",
        prior_components,
        prior_transfer_bytes(prior_components, dim),
        dim
    );
    let link = Link::new_ms(25.0, 250_000.0); // 25 ms one way, 250 KB/s

    // Device ≈ Raspberry-Pi class; the two cloud profiles.
    let profiles = [("hyperscale", 1e12), ("shared-edge-server", 4e9)];

    let mut table = Table::new(
        "E9",
        "network bytes and completion time per strategy, fleet size and cloud profile",
        &[
            "cloud",
            "strategy",
            "fleet",
            "total-KB",
            "makespan-ms",
            "cloud-busy-ms",
            "device-mJ",
        ],
    );

    for (profile, cloud_flops) in profiles {
        for fleet in [1usize, 10, 50] {
            for (name, strategy) in [
                (
                    "edge-only",
                    Strategy::EdgeOnly {
                        samples,
                        dim,
                        iterations: 200,
                    },
                ),
                (
                    "cloud-round-trip",
                    Strategy::CloudRoundTrip {
                        samples,
                        dim,
                        iterations: 200,
                    },
                ),
                (
                    "prior-transfer",
                    Strategy::PriorTransfer {
                        samples,
                        dim,
                        iterations: 100,
                        em_rounds: 5,
                        prior_components,
                    },
                ),
            ] {
                let mut scenario = Scenario::new(ComputeModel {
                    device_flops: 2e9,
                    cloud_flops,
                });
                for _ in 0..fleet {
                    scenario.add_device(DeviceSpec { link, strategy });
                }
                let report = scenario.run();
                let device_mj = report.devices[0].total_joules() * 1e3;
                table.push_row(vec![
                    profile.to_string(),
                    name.to_string(),
                    fleet.to_string(),
                    format!("{:.1}", report.total_bytes as f64 / 1024.0),
                    format!("{:.1}", report.makespan.as_secs_f64() * 1e3),
                    format!("{:.1}", report.cloud_busy.as_secs_f64() * 1e3),
                    format!("{:.2}", device_mj),
                ]);
            }
        }
    }
    table.emit();

    // ── Connection model: fresh-per-request vs keep-alive ──────────────
    // The serving layer's keep-alive client holds one stream per device
    // round; the simulator mirrors it. Every fresh connection costs a
    // handshake round trip (time only — frame bytes are identical in
    // both modes), so under lossy conditions that force retries the
    // per-message redials of a fresh-per-request client stack up while
    // keep-alive pays once. Bytes include the ModelReport telemetry leg
    // the connection model adds.
    println!(
        "\nconnection model: prior transfer through a 150 ms cloud outage \
         (60 ms retry deadline), report frame = {} B",
        model_report_bytes(dim)
    );
    let mut conn_table = Table::new(
        "E9-conn",
        "handshake cost per client mode on the prior-transfer round",
        &[
            "client-mode",
            "handshakes",
            "attempts",
            "total-KB",
            "makespan-ms",
        ],
    );
    for (name, mode) in [
        ("fresh-per-request", ClientMode::FreshPerRequest),
        ("keep-alive", ClientMode::KeepAlive),
    ] {
        let mut scenario = Scenario::new(ComputeModel {
            device_flops: 2e9,
            ..ComputeModel::default()
        })
        .with_retry(RetryModel {
            timeout: SimDuration::from_millis_f64(60.0),
            max_attempts: 5,
        })
        .with_outage(SimDuration::ZERO, SimDuration::from_millis_f64(150.0))
        .with_client_mode(mode);
        for _ in 0..10 {
            scenario.add_device(DeviceSpec {
                link,
                strategy: Strategy::PriorTransfer {
                    samples,
                    dim,
                    iterations: 100,
                    em_rounds: 5,
                    prior_components,
                },
            });
        }
        let report = scenario.run();
        let d = &report.devices[0];
        conn_table.push_row(vec![
            name.to_string(),
            d.handshakes.to_string(),
            d.attempts.to_string(),
            format!("{:.1}", report.total_bytes as f64 / 1024.0),
            format!("{:.1}", report.makespan.as_secs_f64() * 1e3),
        ]);
    }
    conn_table.emit();

    // ── Switch fabric: what the private-pipe model hides ───────────────
    // The same prior-transfer round, now through the one-big-switch
    // topology: every frame is segmented at the MTU, pays serialization
    // and queueing delay at shared ports, and is acked by the go-back-N
    // transport. Byte totals grow by the transport overhead (one ack per
    // data frame) and the makespan grows with fleet size as the cloud's
    // ports queue — the congestion the legacy model could not represent.
    println!(
        "\nswitch fabric: same prior-transfer fleet through one big switch \
         (transport ack = {ACK_BYTES} B per data frame)"
    );
    let mut fabric_table = Table::new(
        "E9-fabric",
        "legacy private pipes vs. one-big-switch fabric on the prior-transfer round",
        &[
            "model",
            "fleet",
            "total-KB",
            "makespan-ms",
            "dropped",
            "retx-KB",
        ],
    );
    let strategy = Strategy::PriorTransfer {
        samples,
        dim,
        iterations: 100,
        em_rounds: 5,
        prior_components,
    };
    for fleet in [1usize, 10, 50] {
        for fabric in [false, true] {
            let mut scenario = Scenario::new(ComputeModel {
                device_flops: 2e9,
                ..ComputeModel::default()
            });
            if fabric {
                // A 1 MB/s cloud access link shared by the whole fleet —
                // the incast bottleneck the private-pipe model assumes
                // away. Queues scale with the fleet but stay shallower
                // than the full payload fan-out, so the big fleets shed
                // frames at the cloud egress and go-back-N pays them
                // back in the retx column.
                scenario = scenario.with_topology(
                    Topology::one_big_switch(Link::new_ms(25.0, 1e6)).with_switch(SwitchConfig {
                        queue_capacity: 4 * fleet as u32 + 16,
                        ..SwitchConfig::default()
                    }),
                );
            }
            for _ in 0..fleet {
                scenario.add_device(DeviceSpec { link, strategy });
            }
            let report = scenario.run();
            fabric_table.push_row(vec![
                if fabric {
                    "one-big-switch"
                } else {
                    "private-pipes"
                }
                .to_string(),
                fleet.to_string(),
                format!("{:.1}", report.total_bytes as f64 / 1024.0),
                format!("{:.1}", report.makespan.as_secs_f64() * 1e3),
                report.messages_dropped.to_string(),
                format!("{:.1}", report.bytes_retransmitted as f64 / 1024.0),
            ]);
        }
    }
    fabric_table.emit();
}
