//! IoT fleet deployment: combine the learning pipeline with the event-
//! driven simulator to answer the ICDCS question — what does each strategy
//! cost a fleet of 25 devices in bytes and minutes?
//!
//! ```sh
//! cargo run -p dre-integration --example iot_fleet --release
//! ```

use dre_data::{TaskFamily, TaskFamilyConfig};
use dre_edgesim::{
    model_report_bytes, prior_transfer_bytes, ClientMode, ComputeModel, DeviceSpec, Link,
    RetryModel, Scenario, SimDuration, Strategy, SwitchConfig, Topology,
};
use dre_models::metrics;
use dre_prob::seeded_rng;
use dro_edge::{baselines, CloudKnowledge, EdgeLearner, EdgeLearnerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = seeded_rng(5050);
    let family = TaskFamily::generate(&TaskFamilyConfig::default(), &mut rng)?;
    let cloud = CloudKnowledge::from_family(&family, 40, 400, 1.0, &mut rng)?;
    let prior_components = cloud.prior().num_components();
    let dim = family.config().dim;
    let fleet = 25;
    let samples = 20; // the few-shot regime the paper targets

    // ── Accuracy side: what quality does each strategy deliver? ────────
    let mut acc_edge = 0.0;
    let mut acc_prior = 0.0;
    for _ in 0..fleet {
        let task = family.sample_task(&mut rng);
        let train = task.generate(samples, &mut rng);
        let test = task.generate(500, &mut rng);
        let erm = baselines::fit_local_erm(&train, 1e-3)?;
        acc_edge += metrics::accuracy(&erm, test.features(), test.labels())?;
        let fit =
            EdgeLearner::new(EdgeLearnerConfig::default(), cloud.prior().clone())?.fit(&train)?;
        acc_prior += metrics::accuracy(&fit.model, test.features(), test.labels())?;
    }
    acc_edge /= fleet as f64;
    acc_prior /= fleet as f64;

    // ── Systems side: what does delivery cost? ─────────────────────────
    let link = Link::new_ms(35.0, 200_000.0); // cellular-ish uplink
    let run = |strategy: Strategy| {
        let mut sc = Scenario::new(ComputeModel::default());
        for _ in 0..fleet {
            sc.add_device(DeviceSpec { link, strategy });
        }
        sc.run()
    };
    let edge_only = run(Strategy::EdgeOnly {
        samples,
        dim,
        iterations: 200,
    });
    let round_trip = run(Strategy::CloudRoundTrip {
        samples,
        dim,
        iterations: 200,
    });
    let prior_xfer = run(Strategy::PriorTransfer {
        samples,
        dim,
        iterations: 200,
        em_rounds: 15,
        prior_components,
    });

    println!(
        "fleet of {fleet} devices, {samples} samples each, prior frame = {} B on the wire\n",
        prior_transfer_bytes(prior_components, dim)
    );
    println!(
        "{:<18} {:>10} {:>14} {:>10}",
        "strategy", "total KB", "makespan (ms)", "accuracy"
    );
    for (name, report, acc) in [
        ("edge-only", &edge_only, acc_edge),
        ("cloud-round-trip", &round_trip, acc_edge), // cloud trains same ERM
        ("prior-transfer", &prior_xfer, acc_prior),
    ] {
        println!(
            "{name:<18} {:>10.1} {:>14.1} {acc:>10.3}",
            report.total_bytes as f64 / 1024.0,
            report.makespan.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\nprior transfer gets transfer-learning accuracy at edge-only-like\n\
         network cost — the paper's deployment argument in one table."
    );

    // ── Degradation ladder: the same fleet through a cloud outage ──────
    // Prior requests sent during the outage window vanish; devices retry
    // on doubling deadlines and, if the budget runs out, fall back to
    // local ERM. Each report carries the `FitMode` rung that produced its
    // model — the same vocabulary the real `dre-serve` runtime logs.
    println!("\n-- 90 ms cloud outage, retry deadline 40 ms, fault tolerance --");
    let strategy = Strategy::PriorTransfer {
        samples,
        dim,
        iterations: 200,
        em_rounds: 15,
        prior_components,
    };
    let outage = |max_attempts: u32| {
        let mut sc = Scenario::new(ComputeModel::default())
            .with_retry(RetryModel {
                timeout: SimDuration::from_millis_f64(40.0),
                max_attempts,
            })
            .with_outage(
                SimDuration::from_millis_f64(0.0),
                SimDuration::from_millis_f64(90.0),
            );
        for _ in 0..fleet {
            sc.add_device(DeviceSpec { link, strategy });
        }
        sc.run()
    };
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>14}",
        "retry budget", "mode", "attempts", "dropped", "makespan (ms)"
    );
    for (name, max_attempts) in [
        ("4 attempts (rides it)", 4u32),
        ("2 attempts (gives up)", 2),
    ] {
        let report = outage(max_attempts);
        let d = &report.devices[0]; // homogeneous fleet: all devices agree
        println!(
            "{name:<22} {:>8} {:>10} {:>10} {:>14.1}",
            d.mode.tag(),
            d.attempts,
            report.dropped_requests,
            report.makespan.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\na 4-attempt budget waits out the outage and still lands the prior;\n\
         a 2-attempt budget exhausts inside the window and every device\n\
         degrades to local-only ERM — it finishes, just without transfer."
    );

    // ── Connection model: what does keep-alive buy the same fleet? ─────
    // The serving layer's keep-alive PriorClient holds one stream per
    // device round. Turning on the simulator's connection model charges
    // every fresh connection a handshake round trip (time only) and adds
    // the framed ModelReport telemetry leg — so under an outage's
    // retries, fresh-per-request redials per message while keep-alive
    // pays a single handshake for the whole round. The deadline is sized
    // for the handshake-inflated response time, per the RetryModel
    // docs — too short and redials race the in-flight response.
    println!(
        "\n-- 200 ms outage, connection model on (report frame = {} B) --",
        model_report_bytes(dim)
    );
    let modeled = |mode: ClientMode| {
        let mut sc = Scenario::new(ComputeModel::default())
            .with_retry(RetryModel {
                timeout: SimDuration::from_millis_f64(180.0),
                max_attempts: 4,
            })
            .with_outage(
                SimDuration::from_millis_f64(0.0),
                SimDuration::from_millis_f64(200.0),
            )
            .with_client_mode(mode);
        for _ in 0..fleet {
            sc.add_device(DeviceSpec { link, strategy });
        }
        sc.run()
    };
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>14}",
        "client mode", "handshakes", "attempts", "total KB", "makespan (ms)"
    );
    for (name, mode) in [
        ("fresh-per-request", ClientMode::FreshPerRequest),
        ("keep-alive", ClientMode::KeepAlive),
    ] {
        let report = modeled(mode);
        let d = &report.devices[0];
        println!(
            "{name:<18} {:>10} {:>10} {:>10.1} {:>14.1}",
            d.handshakes,
            d.attempts,
            report.total_bytes as f64 / 1024.0,
            report.makespan.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\nbyte counts match — handshakes cost time, not frames — but the\n\
         keep-alive fleet finishes a full round trip earlier per redial\n\
         avoided: the simulator's view of the zero-copy serving hot path."
    );

    // ── Switch fabric: the same fleet behind one shared switch ─────────
    // Everything above gives each device a private pipe to the cloud.
    // Attaching a topology routes every frame through a one-big-switch
    // fabric instead: drop-tail port queues, MTU segmentation, and a
    // go-back-N transport. The cloud's egress port becomes the shared
    // bottleneck the private-pipe model assumes away — a shallow queue
    // sheds the prior fan-out and retransmissions stretch the makespan.
    println!("\n-- one-big-switch fabric, 25-device prior fan-out --");
    let fabric = |queue_capacity: u32| {
        let mut sc = Scenario::new(ComputeModel::default()).with_topology(
            Topology::one_big_switch(Link::new_ms(5.0, 1e6)).with_switch(SwitchConfig {
                queue_capacity,
                ..SwitchConfig::default()
            }),
        );
        for _ in 0..fleet {
            sc.add_device(DeviceSpec { link, strategy });
        }
        sc.run()
    };
    println!(
        "{:<16} {:>10} {:>10} {:>14}",
        "switch queue", "dropped", "retx KB", "makespan (ms)"
    );
    for (name, queue_capacity) in [("16 frames", 16u32), ("256 frames", 256)] {
        let report = fabric(queue_capacity);
        println!(
            "{name:<16} {:>10} {:>10.1} {:>14.1}",
            report.messages_dropped,
            report.bytes_retransmitted as f64 / 1024.0,
            report.makespan.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\nthe deep queue absorbs the incast; the shallow one drops frames at\n\
         the shared cloud port and go-back-N buys them back with time —\n\
         congestion the private-pipe tables above cannot even express."
    );
    Ok(())
}
