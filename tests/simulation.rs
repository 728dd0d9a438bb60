//! Integration of the deployment simulator with the real learning
//! pipeline: prior sizes come from an actually fitted cloud prior, and the
//! simulator's byte counts are pinned to the real `dre-serve` wire frames.

use dre_data::{TaskFamily, TaskFamilyConfig};
use dre_edgesim::{
    model_report_bytes, prior_transfer_bytes, ClientMode, ComputeModel, DeviceSpec, Link,
    RetryModel, Scenario, SimDuration, Strategy, REQUEST_BYTES,
};
use dre_prob::seeded_rng;
use dro_edge::CloudKnowledge;

fn fitted_cloud() -> (CloudKnowledge, usize) {
    let mut rng = seeded_rng(600);
    let family = TaskFamily::generate(
        &TaskFamilyConfig {
            dim: 6,
            num_clusters: 3,
            ..TaskFamilyConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let cloud = CloudKnowledge::from_family(&family, 24, 300, 1.0, &mut rng).unwrap();
    (cloud, family.config().dim)
}

#[test]
fn prior_transfer_beats_raw_upload_on_bytes_with_a_real_prior() {
    let (cloud_knowledge, dim) = fitted_cloud();
    let prior_components = cloud_knowledge.prior().num_components();
    let samples = 500;
    let link = Link::new_ms(30.0, 125_000.0);

    let run = |strategy| {
        let mut sc = Scenario::new(ComputeModel::default());
        sc.add_device(DeviceSpec { link, strategy });
        sc.run()
    };
    let cloud = run(Strategy::CloudRoundTrip {
        samples,
        dim,
        iterations: 100,
    });
    let prior = run(Strategy::PriorTransfer {
        samples,
        dim,
        iterations: 100,
        em_rounds: 10,
        prior_components,
    });
    assert!(
        prior.total_bytes * 3 < cloud.total_bytes,
        "fitted prior {} bytes should be ≪ raw upload {} bytes",
        prior.total_bytes,
        cloud.total_bytes
    );
}

#[test]
fn fleet_scaling_shapes_match_the_paper_motivation() {
    let (cloud_knowledge, dim) = fitted_cloud();
    let prior_components = cloud_knowledge.prior().num_components();
    let link = Link::new_ms(30.0, 125_000.0);
    let makespan = |strategy: Strategy, fleet: usize| {
        let mut sc = Scenario::new(ComputeModel {
            cloud_flops: 5e8, // modest cloud to expose contention
            ..ComputeModel::default()
        });
        for _ in 0..fleet {
            sc.add_device(DeviceSpec { link, strategy });
        }
        sc.run().makespan.as_secs_f64()
    };

    let cloud_1 = makespan(
        Strategy::CloudRoundTrip {
            samples: 500,
            dim,
            iterations: 100,
        },
        1,
    );
    let cloud_40 = makespan(
        Strategy::CloudRoundTrip {
            samples: 500,
            dim,
            iterations: 100,
        },
        40,
    );
    let prior_strategy = Strategy::PriorTransfer {
        samples: 500,
        dim,
        iterations: 100,
        em_rounds: 10,
        prior_components,
    };
    let prior_1 = makespan(prior_strategy, 1);
    let prior_40 = makespan(prior_strategy, 40);

    // Cloud round trips queue; prior transfers do not.
    assert!(
        cloud_40 > cloud_1 * 2.0,
        "cloud should queue: {cloud_1} → {cloud_40}"
    );
    assert!(
        (prior_40 - prior_1).abs() < 1e-9,
        "prior transfer should scale flat: {prior_1} → {prior_40}"
    );
}

#[test]
fn device_reports_are_internally_consistent() {
    let (cloud_knowledge, dim) = fitted_cloud();
    let prior_components = cloud_knowledge.prior().num_components();
    let prior_bytes = prior_transfer_bytes(prior_components, dim);
    let mut sc = Scenario::new(ComputeModel::default());
    for i in 0..6 {
        sc.add_device(DeviceSpec {
            link: Link::new_ms(10.0 + i as f64 * 5.0, 1e6),
            strategy: Strategy::PriorTransfer {
                samples: 100 + 10 * i,
                dim,
                iterations: 50,
                em_rounds: 8,
                prior_components,
            },
        });
    }
    let report = sc.run();
    assert_eq!(report.devices.len(), 6);
    // Every device sent a request frame and received the prior frame.
    for d in &report.devices {
        assert_eq!(d.bytes_sent, REQUEST_BYTES);
        assert_eq!(d.bytes_received, prior_bytes);
        assert!(d.completion.as_micros() > 0);
    }
    // Longer links and bigger workloads finish strictly later.
    for w in report.devices.windows(2) {
        assert!(w[1].completion > w[0].completion);
    }
    assert_eq!(
        report.total_bytes,
        6 * (REQUEST_BYTES + prior_bytes),
        "aggregate bytes must equal the per-device sum"
    );
}

#[test]
fn simulator_bytes_match_the_real_wire_frames() {
    let (cloud_knowledge, dim) = fitted_cloud();
    let prior = cloud_knowledge.prior();
    let k = prior.num_components();

    // Encode the prior exactly as the serve layer would ship it…
    let payload = dro_edge::transfer::serialize_prior(prior);
    let response = dre_serve::frame::encode(&dre_serve::Message::PriorResponse { payload });
    let request = dre_serve::frame::encode(&dre_serve::Message::PriorRequest { task_id: 0 });

    // …and the simulator's cost model must charge those exact bytes.
    assert_eq!(request.len() as u64, REQUEST_BYTES);
    assert_eq!(
        response.len() as u64,
        prior_transfer_bytes(k, dim),
        "simulator payload bytes must equal the real PriorResponse frame"
    );

    let mut sc = Scenario::new(ComputeModel::default());
    sc.add_device(DeviceSpec {
        link: Link::new_ms(20.0, 1e6),
        strategy: Strategy::PriorTransfer {
            samples: 100,
            dim,
            iterations: 50,
            em_rounds: 5,
            prior_components: k,
        },
    });
    let report = sc.run();
    assert_eq!(report.devices[0].bytes_sent, request.len() as u64);
    assert_eq!(report.devices[0].bytes_received, response.len() as u64);
}

#[test]
fn keep_alive_client_mode_amortizes_handshakes_at_real_frame_sizes() {
    let (cloud_knowledge, dim) = fitted_cloud();
    let prior_components = cloud_knowledge.prior().num_components();

    // The simulator's report-leg bytes must equal the real framed
    // `ModelReport` for a packed `[w…, b]` model of this dimension.
    let report_frame = dre_serve::frame::encode(&dre_serve::Message::ModelReport {
        task_id: 0,
        device_id: 0,
        seq: 1,
        params: vec![0.0; dim + 1],
    });
    assert_eq!(report_frame.len() as u64, model_report_bytes(dim));

    // An outage forces three request attempts; the connection model then
    // separates the client modes: fresh-per-request redials per message,
    // keep-alive dials once — the amortization the real keep-alive
    // `PriorClient` buys.
    let run = |mode: ClientMode| {
        let mut sc = Scenario::new(ComputeModel::default())
            .with_retry(RetryModel {
                timeout: SimDuration::from_millis_f64(100.0),
                max_attempts: 4,
            })
            .with_outage(SimDuration::ZERO, SimDuration::from_millis_f64(250.0))
            .with_client_mode(mode);
        sc.add_device(DeviceSpec {
            link: Link::new_ms(30.0, 125_000.0),
            strategy: Strategy::PriorTransfer {
                samples: 100,
                dim,
                iterations: 50,
                em_rounds: 5,
                prior_components,
            },
        });
        sc.run()
    };
    let fresh = run(ClientMode::FreshPerRequest);
    let keep = run(ClientMode::KeepAlive);
    for r in [&fresh, &keep] {
        let d = &r.devices[0];
        assert_eq!(d.attempts, 3, "attempts 1–2 fall inside the outage window");
        assert_eq!(r.model_reports, 1);
        // Handshakes cost time, never bytes: both modes ship exactly
        // three real request frames and one real report frame.
        assert_eq!(d.bytes_sent, 3 * REQUEST_BYTES + model_report_bytes(dim));
        assert_eq!(
            d.bytes_received,
            prior_transfer_bytes(prior_components, dim)
        );
    }
    assert_eq!(fresh.devices[0].handshakes, 4);
    assert_eq!(keep.devices[0].handshakes, 1);
    // Keep-alive's amortized handshake takes one round trip (2 × 30 ms)
    // off the critical path.
    assert_eq!(
        fresh.devices[0].completion.as_micros(),
        keep.devices[0].completion.as_micros() + 2 * 30_000
    );
}

#[test]
fn topology_transport_carries_the_real_prior_across_the_switch() {
    use dre_edgesim::{LossModel, SwitchConfig, Topology, ACK_BYTES};

    let (cloud_knowledge, dim) = fitted_cloud();
    let prior_components = cloud_knowledge.prior().num_components();
    let payload = prior_transfer_bytes(prior_components, dim);
    // A small MTU forces the fitted prior (~1.2 kB) into several
    // segments, exercising the go-back-N window.
    let mtu = 256u64;
    let segments = payload.div_ceil(mtu);
    assert!(
        segments > 1,
        "the fitted prior ({payload} B) must segment at mtu {mtu} to exercise go-back-N"
    );

    let mk = |topo: Option<Topology>| {
        let mut sc = Scenario::new(ComputeModel::default());
        if let Some(t) = topo {
            sc = sc.with_topology(t);
        }
        for i in 0..4 {
            sc.add_device(DeviceSpec {
                link: Link::new_ms(10.0 + i as f64, 1e6),
                strategy: Strategy::PriorTransfer {
                    samples: 100,
                    dim,
                    iterations: 50,
                    em_rounds: 5,
                    prior_components,
                },
            });
        }
        sc
    };

    let topo = Topology::one_big_switch(Link::new_ms(2.0, 1e8)).with_switch(SwitchConfig {
        mtu: mtu as u32,
        ..SwitchConfig::default()
    });
    let fabric = mk(Some(topo)).run();
    let legacy = mk(None).run();

    for d in &fabric.devices {
        // Out: one request frame plus one ack per payload segment.
        assert_eq!(d.bytes_sent, REQUEST_BYTES + segments * ACK_BYTES);
        // In: the request's ack plus the segmented payload itself.
        assert_eq!(d.bytes_received, ACK_BYTES + payload);
        assert!(d.completion.as_micros() > 0);
    }
    assert_eq!(fabric.messages_dropped, 0);
    assert_eq!(fabric.bytes_retransmitted, 0);
    // The fabric models costs the legacy pipe ignores: queueing,
    // serialization per hop, and transport acks.
    assert!(fabric.makespan > legacy.makespan);
    assert!(fabric.total_bytes > legacy.total_bytes);
    // Lossy replay is bit-identical at a fixed seed.
    let lossy = || {
        let t = Topology::one_big_switch(Link::new_ms(2.0, 1e8))
            .with_switch(SwitchConfig {
                queue_capacity: 8,
                mtu: mtu as u32,
                ..SwitchConfig::default()
            })
            .with_device_loss(LossModel::Bernoulli { loss: 0.1, seed: 3 });
        mk(Some(t)).run()
    };
    let a = lossy();
    assert!(
        a.bytes_retransmitted > 0,
        "10% loss must cost retransmissions"
    );
    assert_eq!(a, lossy());
}
