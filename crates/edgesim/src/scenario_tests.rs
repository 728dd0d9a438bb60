//! Scenario tests: legacy behaviour (preserved bit-for-bit across the
//! flat-state executor rewrite), topology-mode transport semantics, and
//! pinned event traces.

use super::*;
use crate::topology::{LossModel, SwitchConfig, Topology};

fn link() -> Link {
    Link::new_ms(20.0, 1e6) // 20 ms one-way, 1 MB/s
}

#[test]
fn edge_only_uses_no_network() {
    let mut sc = Scenario::new(ComputeModel::default());
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: Strategy::EdgeOnly {
            samples: 100,
            dim: 10,
            iterations: 100,
        },
    });
    let r = sc.run();
    assert_eq!(r.devices[0].bytes_sent, 0);
    assert_eq!(r.devices[0].bytes_received, 0);
    assert_eq!(r.total_bytes, 0);
    assert_eq!(r.cloud_busy, SimDuration::ZERO);
    // 20·100·10·100 = 2e6 flops at 1e8 flop/s = 20 ms.
    assert_eq!(r.makespan.as_micros(), 20_000);
}

#[test]
fn cloud_round_trip_accounts_bytes_and_latency() {
    let mut sc = Scenario::new(ComputeModel::default());
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: Strategy::CloudRoundTrip {
            samples: 1000,
            dim: 9,
            iterations: 100,
        },
    });
    let r = sc.run();
    let up = raw_data_bytes(1000, 9); // 80 KB
    let down = model_bytes(9);
    assert_eq!(r.devices[0].bytes_sent, up);
    assert_eq!(r.devices[0].bytes_received, down);
    assert_eq!(r.total_bytes, up + down);
    assert!(r.cloud_busy > SimDuration::ZERO);
    // Completion ≥ two propagation legs plus the upload serialization.
    assert!(r.makespan.as_micros() > 2 * 20_000 + 80_000);
}

#[test]
fn prior_transfer_moves_far_fewer_bytes_than_raw_upload() {
    let samples = 500;
    let dim = 16;
    let mk = |strategy| {
        let mut sc = Scenario::new(ComputeModel::default());
        sc.add_device(DeviceSpec {
            link: link(),
            strategy,
        });
        sc.run()
    };
    let cloud = mk(Strategy::CloudRoundTrip {
        samples,
        dim,
        iterations: 100,
    });
    let prior = mk(Strategy::PriorTransfer {
        samples,
        dim,
        iterations: 100,
        em_rounds: 5,
        prior_components: 4,
    });
    assert!(
        prior.total_bytes * 5 < cloud.total_bytes,
        "prior {} vs cloud {}",
        prior.total_bytes,
        cloud.total_bytes
    );
}

#[test]
fn cloud_queueing_delays_grow_with_fleet_size() {
    let completion_of_last = |n: usize| {
        let mut sc = Scenario::new(ComputeModel {
            cloud_flops: 1e8, // slow cloud to make queueing visible
            ..ComputeModel::default()
        });
        for _ in 0..n {
            sc.add_device(DeviceSpec {
                link: link(),
                strategy: Strategy::CloudRoundTrip {
                    samples: 500,
                    dim: 10,
                    iterations: 100,
                },
            });
        }
        sc.run().makespan
    };
    let one = completion_of_last(1);
    let ten = completion_of_last(10);
    assert!(
        ten.as_micros() > one.as_micros() + 8 * 100_000,
        "ten devices should queue: {one} vs {ten}"
    );
}

#[test]
fn prior_transfer_scales_out_without_cloud_contention() {
    let makespan = |n: usize| {
        let mut sc = Scenario::new(ComputeModel::default());
        for _ in 0..n {
            sc.add_device(DeviceSpec {
                link: link(),
                strategy: Strategy::PriorTransfer {
                    samples: 200,
                    dim: 10,
                    iterations: 50,
                    em_rounds: 5,
                    prior_components: 4,
                },
            });
        }
        sc.run().makespan
    };
    // Devices are independent: makespan does not grow with fleet size.
    assert_eq!(makespan(1), makespan(20));
}

#[test]
fn runs_are_deterministic() {
    let mut sc = Scenario::new(ComputeModel::default());
    for i in 0..7 {
        sc.add_device(DeviceSpec {
            link: Link::new_ms(5.0 + i as f64, 5e5),
            strategy: if i % 2 == 0 {
                Strategy::CloudRoundTrip {
                    samples: 300 + i,
                    dim: 8,
                    iterations: 80,
                }
            } else {
                Strategy::PriorTransfer {
                    samples: 100,
                    dim: 8,
                    iterations: 40,
                    em_rounds: 4,
                    prior_components: 2,
                }
            },
        });
    }
    assert_eq!(sc.num_devices(), 7);
    let a = sc.run();
    let b = sc.run();
    assert_eq!(a, b);
    assert_eq!(
        a.makespan,
        a.devices.iter().map(|d| d.completion).max().unwrap()
    );
}

#[test]
fn energy_accounting_follows_the_strategy() {
    let energy = EnergyModel {
        joules_per_flop: 1e-9,
        joules_per_byte: 1e-6,
    };
    let mk = |strategy| {
        let mut sc = Scenario::new(ComputeModel::default()).with_energy(energy);
        sc.add_device(DeviceSpec {
            link: link(),
            strategy,
        });
        sc.run().devices[0]
    };
    // Edge-only: all compute, no radio.
    let edge = mk(Strategy::EdgeOnly {
        samples: 100,
        dim: 10,
        iterations: 100,
    });
    assert_eq!(edge.radio_joules, 0.0);
    // 20·100·10·100 = 2e6 flops × 1e-9 J = 2 mJ.
    assert!((edge.compute_joules - 2e-3).abs() < 1e-12);
    assert_eq!(edge.total_joules(), edge.compute_joules);

    // Cloud round trip: all radio, no device compute.
    let cloud = mk(Strategy::CloudRoundTrip {
        samples: 100,
        dim: 10,
        iterations: 100,
    });
    assert_eq!(cloud.compute_joules, 0.0);
    let bytes = raw_data_bytes(100, 10) + model_bytes(10);
    assert!((cloud.radio_joules - bytes as f64 * 1e-6).abs() < 1e-12);

    // Prior transfer: both, with radio far below the raw upload.
    let prior = mk(Strategy::PriorTransfer {
        samples: 100,
        dim: 10,
        iterations: 100,
        em_rounds: 5,
        prior_components: 3,
    });
    assert!(prior.compute_joules > 0.0);
    assert!(prior.radio_joules < cloud.radio_joules / 2.0);
    let wire = REQUEST_BYTES + prior_transfer_bytes(3, 10);
    assert!((prior.radio_joules - wire as f64 * 1e-6).abs() < 1e-12);
}

#[test]
fn default_energy_model_is_radio_dominated_per_unit() {
    let e = EnergyModel::default();
    // One byte costs as much as ~20k FLOPs — the IoT radio/compute gap.
    assert!(e.joules_per_byte / e.joules_per_flop > 1e4);
}

#[test]
fn shard_map_bytes_matches_the_real_encoded_frame() {
    // The const helper must charge exactly the bytes the real codec
    // puts on the wire, for any plane size and address family mix.
    for shards in [1usize, 3, 4, 16] {
        let map = dre_serve::ShardMapWire {
            epoch: 3,
            seed: 0x5EED,
            replication: 2,
            virtual_nodes: 64,
            shards: (0..shards)
                .map(|i| {
                    if i % 2 == 0 {
                        format!("127.0.0.1:{}", 9_000 + i).parse().unwrap()
                    } else {
                        format!("[::1]:{}", 9_000 + i).parse().unwrap()
                    }
                })
                .collect(),
        };
        let framed = dre_serve::frame::encode(&dre_serve::Message::ShardMapResponse { map });
        assert_eq!(framed.len() as u64, shard_map_bytes(shards));
    }
}

#[test]
fn refresh_round_bytes_sums_the_real_closed_loop_frames() {
    // One closed-loop round per device is fetch + report + ack; the
    // helper must charge exactly the four real encoded frame lengths.
    use dre_serve::frame::encode;
    use dre_serve::Message;

    let (components, dim) = (3usize, 10usize);
    // Packed `[w…, b]` models live in `dim + 1` dimensions.
    let prior = dre_bayes::MixturePrior::new(
        (0..components)
            .map(|_| {
                (
                    1.0 / components as f64,
                    vec![0.0; dim + 1],
                    dre_linalg::Matrix::identity(dim + 1),
                )
            })
            .collect(),
    )
    .unwrap();
    let fetch = encode(&Message::PriorRequest { task_id: 1 }).len()
        + encode(&Message::PriorResponse {
            payload: dro_edge::transfer::serialize_prior(&prior),
        })
        .len();
    let report = encode(&Message::ModelReport {
        task_id: 1,
        device_id: 0,
        seq: 1,
        params: vec![0.0; dim + 1],
    })
    .len()
        + encode(&Message::ReportAck { accepted: true }).len();
    let per_device = (fetch + report) as u64;

    for devices in [1usize, 5, 25] {
        assert_eq!(
            refresh_round_bytes(devices, components, dim),
            per_device * devices as u64
        );
    }
}

#[test]
fn random_scenarios_satisfy_aggregate_invariants() {
    // Selective imports: proptest's prelude exports a `Strategy` trait
    // that would shadow the simulator's `Strategy` enum.
    use proptest::prelude::{prop_assert, prop_assert_eq};
    use proptest::strategy::Strategy as _;
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let strategy_gen = (0u8..3, 10usize..500, 1usize..32, 1usize..200, 1usize..12).prop_map(
        |(kind, samples, dim, iterations, prior_components)| match kind {
            0 => Strategy::EdgeOnly {
                samples,
                dim,
                iterations,
            },
            1 => Strategy::CloudRoundTrip {
                samples,
                dim,
                iterations,
            },
            _ => Strategy::PriorTransfer {
                samples,
                dim,
                iterations,
                em_rounds: 1 + iterations % 10,
                prior_components,
            },
        },
    );
    let fleet_gen = proptest::collection::vec((strategy_gen, 0.1..100.0f64, 1e3..1e7f64), 1..12);
    runner
        .run(&fleet_gen, |fleet| {
            let mut sc = Scenario::new(ComputeModel::default());
            for (strategy, latency_ms, bw) in &fleet {
                sc.add_device(DeviceSpec {
                    link: Link::new_ms(*latency_ms, *bw),
                    strategy: *strategy,
                });
            }
            let report = sc.run();
            // Makespan is the latest completion.
            let max_completion = report.devices.iter().map(|d| d.completion).max().unwrap();
            prop_assert_eq!(report.makespan, max_completion);
            // Bytes are additive and strategy-consistent.
            let sum: u64 = report
                .devices
                .iter()
                .map(|d| d.bytes_sent + d.bytes_received)
                .sum();
            prop_assert_eq!(report.total_bytes, sum);
            // No topology: the fabric counters stay zero.
            prop_assert_eq!(report.messages_dropped, 0);
            prop_assert_eq!(report.frames_forwarded, 0);
            prop_assert_eq!(report.bytes_retransmitted, 0);
            prop_assert!(report.events_executed > 0);
            for (d, (strategy, ..)) in report.devices.iter().zip(&fleet) {
                prop_assert!(d.completion > SimTime::ZERO);
                prop_assert!(d.compute_joules >= 0.0 && d.radio_joules >= 0.0);
                // No client mode configured: the connection model is off.
                prop_assert_eq!(d.handshakes, 0);
                match strategy {
                    Strategy::EdgeOnly { .. } => {
                        prop_assert_eq!(d.bytes_sent + d.bytes_received, 0);
                        prop_assert_eq!(d.mode, FitMode::LocalOnly);
                        prop_assert_eq!(d.attempts, 0);
                    }
                    Strategy::CloudRoundTrip { samples, dim, .. } => {
                        prop_assert_eq!(d.bytes_sent, raw_data_bytes(*samples, *dim));
                        prop_assert_eq!(d.bytes_received, model_bytes(*dim));
                        prop_assert_eq!(d.mode, FitMode::FreshPrior);
                    }
                    Strategy::PriorTransfer {
                        dim,
                        prior_components,
                        ..
                    } => {
                        prop_assert_eq!(d.bytes_sent, REQUEST_BYTES);
                        prop_assert_eq!(
                            d.bytes_received,
                            prior_transfer_bytes(*prior_components, *dim)
                        );
                        // No retry model: a single patient attempt.
                        prop_assert_eq!(d.mode, FitMode::FreshPrior);
                        prop_assert_eq!(d.attempts, 1);
                    }
                }
            }
            // Determinism.
            prop_assert_eq!(sc.run(), report);
            Ok(())
        })
        .unwrap();
}

fn prior_strategy() -> Strategy {
    Strategy::PriorTransfer {
        samples: 100,
        dim: 8,
        iterations: 50,
        em_rounds: 4,
        prior_components: 2,
    }
}

#[test]
fn reports_tag_every_strategy_with_its_degradation_rung() {
    let mut sc = Scenario::new(ComputeModel::default());
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: Strategy::EdgeOnly {
            samples: 100,
            dim: 8,
            iterations: 50,
        },
    });
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: Strategy::CloudRoundTrip {
            samples: 100,
            dim: 8,
            iterations: 50,
        },
    });
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let r = sc.run();
    assert_eq!(r.devices[0].mode, FitMode::LocalOnly);
    assert_eq!(r.devices[0].attempts, 0);
    assert_eq!(r.devices[1].mode, FitMode::FreshPrior);
    assert_eq!(r.devices[1].attempts, 1);
    assert_eq!(r.devices[2].mode, FitMode::FreshPrior);
    assert_eq!(r.devices[2].attempts, 1);
    assert_eq!(r.dropped_requests, 0);
}

#[test]
fn outage_is_ridden_out_by_deterministic_retries() {
    // Outage [0, 100 ms); 30 ms deadline doubling per attempt. The
    // request arrives at 20.018 ms (dropped), the attempt-2 resend at
    // 50.018 ms (dropped), and the attempt-3 resend — sent at the
    // 90 ms deadline — arrives at 110.018 ms, after the heal.
    let mut sc = Scenario::new(ComputeModel::default())
        .with_retry(RetryModel {
            timeout: SimDuration::from_millis_f64(30.0),
            max_attempts: 4,
        })
        .with_outage(SimDuration::ZERO, SimDuration::from_millis_f64(100.0));
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let r = sc.run();
    let d = &r.devices[0];
    assert_eq!(d.mode, FitMode::FreshPrior, "the fetch must recover");
    assert_eq!(d.attempts, 3);
    assert_eq!(r.dropped_requests, 2);
    assert_eq!(d.bytes_sent, 3 * REQUEST_BYTES);
    assert_eq!(d.bytes_received, prior_transfer_bytes(2, 8));
    // Outage scenarios replay bit-identically.
    assert_eq!(sc.run(), r);
}

#[test]
fn exhausted_retry_budget_falls_back_to_local_erm() {
    let mut sc = Scenario::new(ComputeModel::default())
        .with_retry(RetryModel {
            timeout: SimDuration::from_millis_f64(30.0),
            max_attempts: 2,
        })
        .with_outage(SimDuration::ZERO, SimDuration::from_secs_f64(10.0));
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let r = sc.run();
    let d = &r.devices[0];
    assert_eq!(d.mode, FitMode::LocalOnly);
    assert_eq!(d.attempts, 2);
    assert_eq!(r.dropped_requests, 2);
    assert_eq!(d.bytes_received, 0, "nothing ever came back");
    assert_eq!(d.bytes_sent, 2 * REQUEST_BYTES);
    // Gave up at the attempt-2 deadline (30 + 60 ms), then trained
    // locally: 20·100·8·50 = 8·10⁵ FLOPs at 10⁸ FLOP/s = 8 ms.
    assert_eq!(d.completion.as_micros(), 90_000 + 8_000);
    // The fallback charges exactly the EdgeOnly compute energy.
    let mut edge = Scenario::new(ComputeModel::default());
    edge.add_device(DeviceSpec {
        link: link(),
        strategy: Strategy::EdgeOnly {
            samples: 100,
            dim: 8,
            iterations: 50,
        },
    });
    assert_eq!(d.compute_joules, edge.run().devices[0].compute_joules);
}

#[test]
fn legacy_runs_model_no_connection_costs() {
    // Without a client mode the connection model is off: no
    // handshakes, no report leg — the pre-connection-model numbers.
    let mut sc = Scenario::new(ComputeModel::default());
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let r = sc.run();
    assert_eq!(r.devices[0].handshakes, 0);
    assert_eq!(r.model_reports, 0);
    assert_eq!(r.devices[0].bytes_sent, REQUEST_BYTES);
}

#[test]
fn fresh_per_request_pays_a_handshake_per_message() {
    let run = |mode: Option<ClientMode>| {
        let mut sc = Scenario::new(ComputeModel::default());
        if let Some(mode) = mode {
            sc = sc.with_client_mode(mode);
        }
        sc.add_device(DeviceSpec {
            link: link(),
            strategy: prior_strategy(),
        });
        sc.run()
    };
    let legacy = run(None);
    let fresh = run(Some(ClientMode::FreshPerRequest));
    let d = &fresh.devices[0];
    // Two connections: the prior fetch and the model report.
    assert_eq!(d.handshakes, 2);
    assert_eq!(fresh.model_reports, 1);
    // The handshake is time-only; the report leg is the only byte
    // difference against the legacy run.
    assert_eq!(d.bytes_sent, REQUEST_BYTES + model_report_bytes(8));
    assert_eq!(d.bytes_received, prior_transfer_bytes(2, 8));
    // Exactly one handshake round trip (2 × 20 ms) sits on the
    // critical path — the report connection happens after the model
    // is ready, so it never delays completion.
    assert_eq!(
        d.completion.as_micros(),
        legacy.devices[0].completion.as_micros() + 2 * 20_000
    );
    assert_eq!(fresh.makespan, d.completion);
}

#[test]
fn keep_alive_amortizes_the_handshake_across_the_round() {
    // Same outage as `outage_is_ridden_out_by_deterministic_retries`:
    // three attempts, two dropped. Fresh-per-request redials for every
    // attempt plus the report; keep-alive dials once and reuses the
    // stream (the outage drops requests at the application layer, so
    // the stream stays up).
    let run = |mode: ClientMode| {
        let mut sc = Scenario::new(ComputeModel::default())
            .with_retry(RetryModel {
                timeout: SimDuration::from_millis_f64(30.0),
                max_attempts: 4,
            })
            .with_outage(SimDuration::ZERO, SimDuration::from_millis_f64(100.0))
            .with_client_mode(mode);
        sc.add_device(DeviceSpec {
            link: link(),
            strategy: prior_strategy(),
        });
        let r = sc.run();
        assert_eq!(
            sc.run(),
            r,
            "connection-model runs must replay bit-identically"
        );
        r
    };
    let fresh = run(ClientMode::FreshPerRequest);
    let keep = run(ClientMode::KeepAlive);
    for r in [&fresh, &keep] {
        let d = &r.devices[0];
        assert_eq!(d.mode, FitMode::FreshPrior);
        assert_eq!(d.attempts, 3);
        assert_eq!(r.dropped_requests, 2);
        assert_eq!(r.model_reports, 1);
        // Handshakes never cost frame bytes: both modes ship exactly
        // three request frames and one report frame.
        assert_eq!(d.bytes_sent, 3 * REQUEST_BYTES + model_report_bytes(8));
    }
    assert_eq!(fresh.devices[0].handshakes, 4); // 3 attempts + report
    assert_eq!(keep.devices[0].handshakes, 1); // amortized
                                               // Only the winning attempt's handshake is on the critical path,
                                               // and keep-alive has already paid it: exactly one round trip
                                               // (2 × 20 ms) separates the two modes.
    assert_eq!(
        fresh.devices[0].completion.as_micros(),
        keep.devices[0].completion.as_micros() + 2 * 20_000
    );
}

#[test]
fn cloud_round_trip_pays_one_handshake_in_either_mode() {
    let run = |mode: ClientMode| {
        let mut sc = Scenario::new(ComputeModel::default()).with_client_mode(mode);
        sc.add_device(DeviceSpec {
            link: link(),
            strategy: Strategy::CloudRoundTrip {
                samples: 100,
                dim: 8,
                iterations: 50,
            },
        });
        sc.run()
    };
    let fresh = run(ClientMode::FreshPerRequest);
    let keep = run(ClientMode::KeepAlive);
    // One connection carries the whole upload → train → download
    // round trip, so the modes agree everywhere.
    assert_eq!(fresh, keep);
    assert_eq!(fresh.devices[0].handshakes, 1);
    // Raw-data upload is not the serving protocol: no report leg.
    assert_eq!(fresh.model_reports, 0);
}

#[test]
#[should_panic(expected = "outage window requires a retry model")]
fn outage_without_a_retry_model_is_rejected() {
    let mut sc = Scenario::new(ComputeModel::default())
        .with_outage(SimDuration::ZERO, SimDuration::from_millis_f64(50.0));
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    sc.run();
}

#[test]
fn retry_deadlines_double_per_attempt() {
    let retry = RetryModel {
        timeout: SimDuration::from_millis_f64(10.0),
        max_attempts: 5,
    };
    assert_eq!(retry.deadline(1).as_micros(), 10_000);
    assert_eq!(retry.deadline(2).as_micros(), 20_000);
    assert_eq!(retry.deadline(4).as_micros(), 80_000);
    // The shift saturates instead of overflowing.
    assert!(retry.deadline(u32::MAX).as_micros() >= retry.deadline(17).as_micros());
}

#[test]
fn byte_size_helpers() {
    assert_eq!(raw_data_bytes(10, 4), 8 * 10 * 5);
    assert_eq!(model_bytes(4), 40);
    // Request frame: 10 bytes of framing around a u64 task id.
    assert_eq!(REQUEST_BYTES, 18);
    // Response frame for K=2, feature dim 4 (parameter dim 5): 10 bytes
    // of framing + 13 bytes of transfer header + 2·(1+5+15) f64s.
    assert_eq!(prior_transfer_bytes(2, 4), 10 + 13 + 8 * 2 * 21);
    // Model report for feature dim 4: framing + task id + device id +
    // sequence number + count + 5 f64s.
    assert_eq!(model_report_bytes(4), 10 + 8 + 8 + 8 + 4 + 8 * 5);
}

// ----- executor rewrite: pinned traces and legacy bit-compatibility -----

/// The no-topology executor must reproduce the pre-rewrite reports
/// bit-for-bit: every byte count, completion microsecond, and f64 energy
/// bit pattern below was captured from the legacy per-device simulator
/// before the flat-state executor replaced it.
#[test]
fn legacy_reports_are_bit_for_bit_stable() {
    #[allow(clippy::too_many_arguments)]
    fn check(
        d: &DeviceReport,
        sent: u64,
        recv: u64,
        done_us: u64,
        cj_bits: u64,
        rj_bits: u64,
        mode: FitMode,
        attempts: u32,
        handshakes: u32,
    ) {
        assert_eq!(d.bytes_sent, sent);
        assert_eq!(d.bytes_received, recv);
        assert_eq!(d.completion.as_micros(), done_us);
        assert_eq!(
            d.compute_joules.to_bits(),
            cj_bits,
            "compute_joules changed"
        );
        assert_eq!(d.radio_joules.to_bits(), rj_bits, "radio_joules changed");
        assert_eq!(d.mode, mode);
        assert_eq!(d.attempts, attempts);
        assert_eq!(d.handshakes, handshakes);
    }

    // Mixed 7-device fleet, no retry/outage/client mode.
    let mut sc = Scenario::new(ComputeModel::default());
    for i in 0..7 {
        sc.add_device(DeviceSpec {
            link: Link::new_ms(5.0 + i as f64, 5e5),
            strategy: if i % 2 == 0 {
                Strategy::CloudRoundTrip {
                    samples: 300 + i,
                    dim: 8,
                    iterations: 80,
                }
            } else {
                Strategy::PriorTransfer {
                    samples: 100,
                    dim: 8,
                    iterations: 40,
                    em_rounds: 4,
                    prior_components: 2,
                }
            },
        });
    }
    let r = sc.run();
    assert_eq!(r.total_bytes, 90_315);
    assert_eq!(r.makespan.as_micros(), 98_642);
    assert_eq!(r.cloud_busy.as_micros(), 157);
    assert_eq!((r.dropped_requests, r.model_reports), (0, 0));
    assert_eq!((r.messages_dropped, r.bytes_retransmitted), (0, 0));
    let fp = FitMode::FreshPrior;
    check(
        &r.devices[0],
        21_600,
        72,
        53_383,
        0x0,
        0x3fa6312f4cf4a558,
        fp,
        1,
        0,
    );
    check(
        &r.devices[1],
        18,
        903,
        90_642,
        0x3f492a737110e454,
        0x3f5e2de8709741d0,
        fp,
        1,
        0,
    );
    check(
        &r.devices[2],
        21_744,
        72,
        57_671,
        0x0,
        0x3fa656eefa1e3eaf,
        fp,
        1,
        0,
    );
    check(
        &r.devices[3],
        18,
        903,
        94_642,
        0x3f492a737110e454,
        0x3f5e2de8709741d0,
        fp,
        1,
        0,
    );
    check(
        &r.devices[4],
        21_888,
        72,
        61_959,
        0x0,
        0x3fa67caea747d805,
        fp,
        1,
        0,
    );
    check(
        &r.devices[5],
        18,
        903,
        98_642,
        0x3f492a737110e454,
        0x3f5e2de8709741d0,
        fp,
        1,
        0,
    );
    check(
        &r.devices[6],
        22_032,
        72,
        66_248,
        0x0,
        0x3fa6a26e5471715c,
        fp,
        1,
        0,
    );

    // Outage + retries under a keep-alive client.
    let mut sc = Scenario::new(ComputeModel::default())
        .with_retry(RetryModel {
            timeout: SimDuration::from_millis_f64(30.0),
            max_attempts: 4,
        })
        .with_outage(SimDuration::ZERO, SimDuration::from_millis_f64(100.0))
        .with_client_mode(ClientMode::KeepAlive);
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let r = sc.run();
    assert_eq!(r.total_bytes, 1_067);
    assert_eq!(r.makespan.as_micros(), 226_921);
    assert_eq!(r.cloud_busy.as_micros(), 0);
    assert_eq!((r.dropped_requests, r.model_reports), (2, 1));
    check(
        &r.devices[0],
        164,
        903,
        226_921,
        0x3f4f75104d551d69,
        0x3f617b5286b59147,
        fp,
        3,
        1,
    );

    // Cloud FIFO queueing under fresh-per-request connections.
    let mut sc = Scenario::new(ComputeModel {
        cloud_flops: 1e8,
        ..ComputeModel::default()
    })
    .with_client_mode(ClientMode::FreshPerRequest);
    for i in 0..3 {
        sc.add_device(DeviceSpec {
            link: Link::new_ms(10.0 + i as f64, 1e6),
            strategy: Strategy::CloudRoundTrip {
                samples: 500,
                dim: 10,
                iterations: 100,
            },
        });
    }
    let r = sc.run();
    assert_eq!(r.total_bytes, 132_264);
    assert_eq!(r.makespan.as_micros(), 386_088);
    assert_eq!(r.cloud_busy.as_micros(), 300_000);
    assert_eq!((r.dropped_requests, r.model_reports), (0, 0));
    check(
        &r.devices[0],
        44_000,
        88,
        184_088,
        0x0,
        0x3fb692b3cc4ac6cd,
        fp,
        1,
        1,
    );
    check(
        &r.devices[1],
        44_000,
        88,
        285_088,
        0x0,
        0x3fb692b3cc4ac6cd,
        fp,
        1,
        1,
    );
    check(
        &r.devices[2],
        44_000,
        88,
        386_088,
        0x0,
        0x3fb692b3cc4ac6cd,
        fp,
        1,
        1,
    );
}

/// The legacy pipeline's event trace, pinned event by event: request
/// arrival, payload arrival, EM completion — times, kinds, and device ids.
#[test]
fn pinned_legacy_event_trace() {
    let mut sc = Scenario::new(ComputeModel::default());
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let (report, trace) = sc.run_traced();
    let expect = [
        // Request: 20 ms propagation + 18 B at 1 MB/s = 18 µs.
        (
            20_018,
            TraceKind::ArriveAtCloud(MessageKind::PriorRequest),
            0,
        ),
        // Payload: + 20 ms + 903 B at 1 MB/s = 903 µs.
        (
            40_921,
            TraceKind::ArriveAtDevice(MessageKind::PriorPayload),
            0,
        ),
        // EM: 60·100·8·(50·4) = 9.6e6 FLOPs at 1e8 FLOP/s = 96 ms.
        (136_921, TraceKind::DeviceComputeDone, 0),
    ];
    let got: Vec<(u64, TraceKind, u32)> = trace
        .iter()
        .map(|e| (e.time_us, e.kind, e.device))
        .collect();
    assert_eq!(got, expect);
    assert_eq!(report.events_executed, trace.len() as u64);
    // The traced run's report is the untraced run's report.
    assert_eq!(report, sc.run());
}

fn small_cloud_topology() -> Topology {
    Topology::one_big_switch(Link::new_ms(1.0, 1e8))
}

/// Topology-mode accounting is per frame actually transmitted: the
/// request and the payload-ack leave the device's radio; the request-ack
/// and the payload arrive at it.
#[test]
fn topology_prior_transfer_accounts_transport_frames() {
    let mut sc = Scenario::new(ComputeModel::default()).with_topology(small_cloud_topology());
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let r = sc.run();
    let d = &r.devices[0];
    // Out: the 18 B request plus the 14 B ack of the 903 B payload.
    assert_eq!(d.bytes_sent, REQUEST_BYTES + ACK_BYTES);
    // In: the cloud's 14 B ack of the request plus the payload itself.
    assert_eq!(d.bytes_received, ACK_BYTES + prior_transfer_bytes(2, 8));
    assert_eq!(d.mode, FitMode::FreshPrior);
    assert_eq!(d.attempts, 1);
    assert_eq!((r.messages_dropped, r.bytes_retransmitted), (0, 0));
    // Four frames, two port crossings each: request, its ack, the
    // payload, its ack.
    assert_eq!(r.frames_forwarded, 8);
    assert!(r.events_executed > 0);
    assert!(d.completion > SimTime::ZERO);
}

/// The pinned topology trace for the same single-device pipeline: every
/// port departure, arrival, delivery, and transfer event in order.
#[test]
fn pinned_topology_event_trace() {
    let mut sc = Scenario::new(ComputeModel::default()).with_topology(small_cloud_topology());
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let (report, trace) = sc.run_traced();
    use TraceKind::*;
    let expect: Vec<(u64, TraceKind, u32)> = vec![
        // Request (18 B, 1 segment) from device 0 to the cloud.
        (0, TransferStart, 0),
        (18, PortDeparture, 0),                // device uplink: 18 B at 1 MB/s
        (20_018, PortArrive, CLOUD_DEVICE),    // + 20 ms to the cloud egress
        (20_019, PortDeparture, CLOUD_DEVICE), // 18 B at 100 MB/s (ceil 1 µs)
        (21_019, Deliver, 0),                  // + 1 ms cloud-link propagation
        // The cloud acks the request and starts the 903 B payload.
        (21_019, TransferStart, 0),
        (21_020, PortDeparture, CLOUD_DEVICE), // ack: 14 B at 100 MB/s
        (21_030, PortDeparture, CLOUD_DEVICE), // payload: 903 B at 100 MB/s (ceil 10 µs)
        (22_020, PortArrive, 0),               // ack reaches device egress
        (22_030, PortArrive, 0),               // payload queues behind the ack
        (22_034, PortDeparture, 0),            // ack: 14 B at 1 MB/s
        (22_937, PortDeparture, 0),            // payload: 903 µs after the ack clears
        (42_034, Deliver, 0),                  // ack: + 20 ms (request fully acked)
        (42_937, Deliver, 0),                  // payload: + 20 ms
        // The device acks the payload and starts its EM fit.
        (42_951, PortDeparture, 0), // payload-ack: 14 B at 1 MB/s
        (62_951, PortArrive, CLOUD_DEVICE),
        (62_952, PortDeparture, CLOUD_DEVICE),
        (63_952, Deliver, 0), // cloud sees the final ack
        // EM: 96 ms after the payload delivery at 42.937 ms.
        (138_937, DeviceComputeDone, 0),
        // Both retransmit timers fire stale (transfers long completed).
        (200_000, RetxTimer, 0),
        (221_019, RetxTimer, 0),
    ];
    let got: Vec<(u64, TraceKind, u32)> = trace
        .iter()
        .map(|e| (e.time_us, e.kind, e.device))
        .collect();
    assert_eq!(got, expect);
    assert_eq!(report.events_executed, trace.len() as u64);
    assert_eq!(report.devices[0].completion.as_micros(), 138_937);
}

/// Deterministic loss costs retransmitted bytes and timer waits, and the
/// go-back-N transport still lands the payload.
#[test]
fn lossy_link_costs_retransmitted_bytes() {
    let topo = small_cloud_topology().with_device_loss(LossModel::Bernoulli { loss: 0.5, seed: 2 });
    let mut sc = Scenario::new(ComputeModel::default()).with_topology(topo);
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let r = sc.run();
    let d = &r.devices[0];
    assert_eq!(
        d.mode,
        FitMode::FreshPrior,
        "transport must recover from loss"
    );
    assert!(r.messages_dropped > 0, "the loss model must actually drop");
    assert!(r.bytes_retransmitted > 0, "drops must cost retransmissions");
    // Loss only ever delays completion relative to the lossless run.
    let lossless = {
        let mut sc = Scenario::new(ComputeModel::default()).with_topology(small_cloud_topology());
        sc.add_device(DeviceSpec {
            link: link(),
            strategy: prior_strategy(),
        });
        sc.run()
    };
    assert!(d.completion > lossless.devices[0].completion);
    assert_eq!(sc.run(), r, "lossy runs replay bit-identically");
}

/// A one-frame switch queue under incast drops frames; go-back-N recovers
/// every device without application-level retries.
#[test]
fn tiny_queue_capacity_drops_and_recovers() {
    let topo = Topology::one_big_switch(Link::new_ms(1.0, 1e4)).with_switch(SwitchConfig {
        queue_capacity: 1,
        ..SwitchConfig::default()
    });
    let mut sc = Scenario::new(ComputeModel::default()).with_topology(topo);
    for i in 0..8 {
        sc.add_device(DeviceSpec {
            link: Link::new_ms(5.0 + i as f64, 1e6),
            strategy: prior_strategy(),
        });
    }
    let r = sc.run();
    assert!(
        r.messages_dropped > 0,
        "incast into a 1-frame queue must drop"
    );
    for d in &r.devices {
        assert_eq!(d.mode, FitMode::FreshPrior);
        assert!(d.completion > SimTime::ZERO, "every device must recover");
    }
    assert_eq!(sc.run(), r, "drop schedules replay bit-identically");
}

/// Bernoulli loss, small queues, retries, and a client mode together:
/// identical seeds must give bit-identical reports and traces.
#[test]
fn topology_runs_are_bit_identical() {
    let mk = || {
        let topo = Topology::one_big_switch(Link::new_ms(2.0, 1e7))
            .with_switch(SwitchConfig {
                queue_capacity: 4,
                ..SwitchConfig::default()
            })
            .with_device_loss(LossModel::Bernoulli {
                loss: 0.05,
                seed: 7,
            })
            .with_cloud_loss(LossModel::Bernoulli {
                loss: 0.01,
                seed: 11,
            });
        let mut sc = Scenario::new(ComputeModel::default())
            .with_topology(topo)
            .with_retry(RetryModel::default())
            .with_client_mode(ClientMode::KeepAlive);
        for i in 0..6 {
            sc.add_device(DeviceSpec {
                link: Link::new_ms(5.0 + i as f64, 1e6),
                strategy: prior_strategy(),
            });
        }
        sc
    };
    let (ra, ta) = mk().run_traced();
    let (rb, tb) = mk().run_traced();
    assert_eq!(ra, rb, "reports must be bit-identical across runs");
    assert_eq!(ta, tb, "traces must be bit-identical across runs");
    assert_eq!(mk().run(), ra, "untraced runs match traced runs");
    // A different loss seed gives a genuinely different schedule.
    let topo = Topology::one_big_switch(Link::new_ms(2.0, 1e7))
        .with_switch(SwitchConfig {
            queue_capacity: 4,
            ..SwitchConfig::default()
        })
        .with_device_loss(LossModel::Bernoulli {
            loss: 0.05,
            seed: 8,
        })
        .with_cloud_loss(LossModel::Bernoulli {
            loss: 0.01,
            seed: 11,
        });
    let mut other = Scenario::new(ComputeModel::default())
        .with_topology(topo)
        .with_retry(RetryModel::default())
        .with_client_mode(ClientMode::KeepAlive);
    for i in 0..6 {
        other.add_device(DeviceSpec {
            link: Link::new_ms(5.0 + i as f64, 1e6),
            strategy: prior_strategy(),
        });
    }
    assert_ne!(other.run_traced().1, ta);
}

/// Outage windows and application retries compose with the switch fabric:
/// requests are dropped at the cloud's application layer and recovered by
/// the device's deadline-doubling resends.
#[test]
fn outage_rides_out_retries_in_topology_mode() {
    let mut sc = Scenario::new(ComputeModel::default())
        .with_topology(small_cloud_topology())
        .with_retry(RetryModel {
            timeout: SimDuration::from_millis_f64(60.0),
            max_attempts: 4,
        })
        .with_outage(SimDuration::ZERO, SimDuration::from_millis_f64(100.0));
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let r = sc.run();
    let d = &r.devices[0];
    assert_eq!(d.mode, FitMode::FreshPrior, "the fetch must recover");
    assert!(d.attempts > 1, "the first request lands inside the outage");
    assert!(r.dropped_requests > 0);
    assert_eq!(sc.run(), r);
}

#[test]
fn legacy_mode_reports_zero_topology_counters() {
    let mut sc = Scenario::new(ComputeModel::default());
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    let r = sc.run();
    assert!(r.events_executed > 0);
    assert_eq!(r.messages_dropped, 0);
    assert_eq!(r.frames_forwarded, 0);
    assert_eq!(r.bytes_retransmitted, 0);
}

#[test]
#[should_panic(expected = "queue_capacity")]
fn invalid_topology_is_rejected_at_run() {
    let topo = small_cloud_topology().with_switch(SwitchConfig {
        queue_capacity: 0,
        ..SwitchConfig::default()
    });
    let mut sc = Scenario::new(ComputeModel::default()).with_topology(topo);
    sc.add_device(DeviceSpec {
        link: link(),
        strategy: prior_strategy(),
    });
    sc.run();
}

// ----- whole-run goldens -----
//
// Each golden is a 64-bit digest of one fleet's full `run_traced` trace
// plus every field of its `SimReport` (f64s by bit pattern). The digests
// were computed at the parent commit of the radix-heap queue change, on
// the binary-heap event queue it replaced, so they pin the schedule the
// executor had then: a queue
// change that reorders a single pair of events, even two with the same
// timestamp, changes a digest. The first three fleets cover what the
// single-device pinned traces cannot: drops, backoff and aborts under
// fabric contention; application retries across an outage; and all three
// strategies sharing a FIFO-queued cloud. The fourth, the fabric under a
// client mode, was pinned on the executor that still wrote its
// application layer once per delivery mode, before the two were merged:
// it pins handshakes ahead of fabric transfers and `ModelReport` legs
// across the switch.

/// FNV-1a over little-endian `u64` words: a stable, dependency-free
/// digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn message_code(kind: MessageKind) -> u64 {
    match kind {
        MessageKind::PriorRequest => 0,
        MessageKind::PriorPayload => 1,
        MessageKind::RawData => 2,
        MessageKind::ModelPayload => 3,
        MessageKind::ModelReport => 4,
    }
}

fn trace_code(kind: TraceKind) -> u64 {
    match kind {
        TraceKind::ArriveAtCloud(m) => message_code(m),
        TraceKind::ArriveAtDevice(m) => 8 + message_code(m),
        TraceKind::DeviceComputeDone => 16,
        TraceKind::CloudComputeDone => 17,
        TraceKind::RetryTimer => 18,
        TraceKind::PortDeparture => 19,
        TraceKind::PortArrive => 20,
        TraceKind::Deliver => 21,
        TraceKind::RetxTimer => 22,
        TraceKind::TransferStart => 23,
    }
}

/// Digest of a whole traced run: every trace record, then every report
/// field.
fn run_digest(report: &SimReport, trace: &[TraceEvent]) -> u64 {
    let mut h = Fnv::new();
    h.u64(trace.len() as u64);
    for e in trace {
        h.u64(e.time_us);
        h.u64(trace_code(e.kind));
        h.u64(e.device as u64);
    }
    for d in &report.devices {
        h.u64(d.bytes_sent);
        h.u64(d.bytes_received);
        h.u64(d.completion.as_micros());
        h.u64(d.compute_joules.to_bits());
        h.u64(d.radio_joules.to_bits());
        h.u64(match d.mode {
            FitMode::StalePrior { age } => 3 + age,
            mode => mode.rung() as u64,
        });
        h.u64(d.attempts as u64);
        h.u64(d.handshakes as u64);
    }
    for x in [
        report.total_bytes,
        report.makespan.as_micros(),
        report.cloud_busy.as_micros(),
        report.dropped_requests,
        report.model_reports,
        report.events_executed,
        report.messages_dropped,
        report.frames_forwarded,
        report.bytes_retransmitted,
    ] {
        h.u64(x);
    }
    h.0
}

/// Runs `sc` traced, checks the trace agrees with the report and with an
/// untraced rerun, and returns the run's digest.
fn golden_digest(sc: &Scenario) -> (SimReport, u64) {
    let (report, trace) = sc.run_traced();
    assert_eq!(report.events_executed, trace.len() as u64);
    assert!(
        trace.windows(2).all(|w| w[0].time_us <= w[1].time_us),
        "events must execute in time order"
    );
    assert_eq!(sc.run(), report, "untraced runs match traced runs");
    let digest = run_digest(&report, &trace);
    (report, digest)
}

/// ~2k devices behind a lossy fabric with 8-frame port queues, a
/// backed-off 500 ms RTO and a 3-round abort threshold: drop-tail
/// overflow, link loss, go-back-N retransmission, exponential backoff and
/// aborts all fire. One device in five uploads raw data with no
/// application retry behind it, so an aborted upload or model download
/// leaves that device incomplete.
#[test]
fn whole_run_golden_lossy_fabric_fleet() {
    let topo = Topology::one_big_switch(Link::new_ms(1.0, 1e7))
        .with_switch(SwitchConfig {
            queue_capacity: 8,
            rto: SimDuration::from_millis_f64(500.0),
            max_retx: 3,
            ..SwitchConfig::default()
        })
        .with_device_loss(LossModel::Bernoulli {
            loss: 0.05,
            seed: 3,
        })
        .with_cloud_loss(LossModel::Bernoulli {
            loss: 0.01,
            seed: 5,
        });
    let mut sc = Scenario::new(ComputeModel::default())
        .with_topology(topo)
        .with_retry(RetryModel {
            timeout: SimDuration::from_millis_f64(2_000.0),
            max_attempts: 2,
        });
    for i in 0..2_000u32 {
        sc.add_device(DeviceSpec {
            link: Link::new_ms(2.0 + (i % 17) as f64, 1e6 * (1 + i % 5) as f64),
            strategy: if i % 5 == 0 {
                Strategy::CloudRoundTrip {
                    samples: 40 + (i % 7) as usize,
                    dim: 8,
                    iterations: 50,
                }
            } else {
                Strategy::PriorTransfer {
                    samples: 100,
                    dim: 8,
                    iterations: 50,
                    em_rounds: 4,
                    prior_components: 1 + (i % 4) as usize,
                }
            },
        });
    }
    let (r, digest) = golden_digest(&sc);
    assert!(r.messages_dropped > 0 && r.bytes_retransmitted > 0);
    assert!(
        r.devices.iter().any(|d| d.completion == SimTime::ZERO),
        "an aborted transfer must leave some upload device incomplete"
    );
    assert!(r
        .devices
        .iter()
        .any(|d| d.mode == FitMode::LocalOnly && d.attempts == 2));
    assert_eq!(
        digest, 0x6d35_2888_15db_ec0a,
        "lossy fabric fleet digest moved"
    );
}

/// A legacy fleet of 1.5k devices riding out a 150 ms cloud outage on
/// doubling 40 ms deadlines over keep-alive connections: some devices
/// recover on a retry, the slowest exhaust their budget and fall back to
/// local ERM, and raw-data uploads queue FIFO on the cloud behind them.
#[test]
fn whole_run_golden_legacy_retry_outage_fleet() {
    let mut sc = Scenario::new(ComputeModel {
        cloud_flops: 1e9,
        ..ComputeModel::default()
    })
    .with_retry(RetryModel {
        timeout: SimDuration::from_millis_f64(40.0),
        max_attempts: 3,
    })
    .with_outage(
        SimDuration::from_millis_f64(10.0),
        SimDuration::from_millis_f64(160.0),
    )
    .with_client_mode(ClientMode::KeepAlive);
    for i in 0..1_500u32 {
        sc.add_device(DeviceSpec {
            link: Link::new_ms(1.0 + (i % 40) as f64, 5e5 * (1 + i % 3) as f64),
            strategy: if i % 4 == 0 {
                Strategy::CloudRoundTrip {
                    samples: 200,
                    dim: 8,
                    iterations: 40,
                }
            } else {
                prior_strategy()
            },
        });
    }
    let (r, digest) = golden_digest(&sc);
    assert!(r.dropped_requests > 0);
    assert!(r
        .devices
        .iter()
        .any(|d| d.mode == FitMode::FreshPrior && d.attempts > 1));
    assert!(r
        .devices
        .iter()
        .any(|d| d.mode == FitMode::LocalOnly && d.attempts == 3));
    assert_eq!(
        digest, 0x7c9c_6674_b51d_4551,
        "legacy retry/outage fleet digest moved"
    );
}

/// All three strategies in one legacy fleet of 900 devices on fresh
/// per-request connections, with a slow cloud so uploads queue behind
/// each other and completions are scheduled at `cloud_busy_until`, far
/// past the current time.
#[test]
fn whole_run_golden_mixed_strategy_fleet() {
    let mut sc = Scenario::new(ComputeModel {
        cloud_flops: 2e8,
        ..ComputeModel::default()
    })
    .with_client_mode(ClientMode::FreshPerRequest);
    for i in 0..900u32 {
        let samples = 50 + (i % 11) as usize * 10;
        sc.add_device(DeviceSpec {
            link: Link::new_ms(3.0 + (i % 13) as f64, 2e5 * (1 + i % 4) as f64),
            strategy: match i % 3 {
                0 => Strategy::EdgeOnly {
                    samples,
                    dim: 8,
                    iterations: 50,
                },
                1 => Strategy::CloudRoundTrip {
                    samples,
                    dim: 8,
                    iterations: 50,
                },
                _ => Strategy::PriorTransfer {
                    samples,
                    dim: 8,
                    iterations: 50,
                    em_rounds: 3,
                    prior_components: 1 + (i % 3) as usize,
                },
            },
        });
    }
    let (r, digest) = golden_digest(&sc);
    assert!(r.cloud_busy > SimDuration::ZERO);
    assert!(r.model_reports > 0);
    assert_eq!(
        digest, 0x036a_903d_54fb_8c4b,
        "mixed strategy fleet digest moved"
    );
}

/// 600 devices of all three strategies behind a lossy fabric with 6-frame
/// port queues, doubling 300 ms application deadlines across an 80 ms
/// outage, under a client mode: handshakes delay every cloud-bound
/// transfer's window opening, and each prior-transfer device that lands
/// its prior sends a `ModelReport` across the switch. One digest per
/// [`ClientMode`].
#[test]
fn whole_run_golden_fabric_client_mode_fleet() {
    let mk = |mode: ClientMode| {
        let topo = Topology::one_big_switch(Link::new_ms(1.0, 5e6))
            .with_switch(SwitchConfig {
                queue_capacity: 6,
                rto: SimDuration::from_millis_f64(150.0),
                max_retx: 4,
                ..SwitchConfig::default()
            })
            .with_device_loss(LossModel::Bernoulli {
                loss: 0.04,
                seed: 21,
            })
            .with_cloud_loss(LossModel::Bernoulli {
                loss: 0.02,
                seed: 23,
            });
        let mut sc = Scenario::new(ComputeModel {
            cloud_flops: 5e9,
            ..ComputeModel::default()
        })
        .with_topology(topo)
        .with_retry(RetryModel {
            timeout: SimDuration::from_millis_f64(300.0),
            max_attempts: 3,
        })
        .with_outage(
            SimDuration::from_millis_f64(5.0),
            SimDuration::from_millis_f64(85.0),
        )
        .with_client_mode(mode);
        for i in 0..600u32 {
            let samples = 60 + (i % 9) as usize * 10;
            sc.add_device(DeviceSpec {
                link: Link::new_ms(1.0 + (i % 23) as f64, 4e5 * (1 + i % 4) as f64),
                strategy: match i % 3 {
                    0 => Strategy::EdgeOnly {
                        samples,
                        dim: 8,
                        iterations: 50,
                    },
                    1 => Strategy::CloudRoundTrip {
                        samples,
                        dim: 8,
                        iterations: 40,
                    },
                    _ => Strategy::PriorTransfer {
                        samples,
                        dim: 8,
                        iterations: 50,
                        em_rounds: 3,
                        prior_components: 1 + (i % 4) as usize,
                    },
                },
            });
        }
        sc
    };
    let mut digests = Vec::new();
    for mode in [ClientMode::FreshPerRequest, ClientMode::KeepAlive] {
        let (r, digest) = golden_digest(&mk(mode));
        assert!(r.dropped_requests > 0, "{mode:?}: the outage must drop");
        assert!(
            r.messages_dropped > 0 && r.bytes_retransmitted > 0,
            "{mode:?}: the fabric must drop and retransmit"
        );
        assert!(r.model_reports > 0, "{mode:?}: reports must cross");
        assert!(r.cloud_busy > SimDuration::ZERO);
        let most = r.devices.iter().map(|d| d.handshakes).max().unwrap();
        assert_eq!(
            most > 1,
            mode == ClientMode::FreshPerRequest,
            "{mode:?}: only fresh connections pay a handshake per message"
        );
        digests.push(digest);
    }
    assert_eq!(
        digests,
        [0x64d8_746e_ecbd_0e60, 0xb008_6f32_8280_0469],
        "fabric client-mode fleet digests moved"
    );
}
