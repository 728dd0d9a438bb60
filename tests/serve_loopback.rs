//! End-to-end tests of the serving layer: a real TCP loopback server with
//! concurrent edge clients running the learning pipeline, and the same
//! client driven through the deterministic fault-injection transport.

use std::sync::Arc;
use std::time::Duration;

use dre_bench::fleet_learner_config;
use dre_data::{TaskFamily, TaskFamilyConfig};
use dre_prob::seeded_rng;
use dre_serve::{
    frame, FaultConfig, FaultInjector, FaultyConnector, InMemoryServer, PriorClient, PriorServer,
    RetryPolicy, ServeConfig, ServerState, TcpConnector, TcpTransport,
};
use dro_edge::{CloudKnowledge, EdgeLearner};

const TASK_ID: u64 = 1;

/// The default server configuration at `workers` event-loop workers. Tests
/// that would bind the default run at 1 worker, where any multiplexing bug
/// serializes into a visible hang, and at the default 4, where connections
/// hand off across workers under real contention.
fn workers_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

fn fitted_cloud() -> (CloudKnowledge, TaskFamily) {
    let mut rng = seeded_rng(4242);
    let family = TaskFamily::generate(
        &TaskFamilyConfig {
            dim: 4,
            num_clusters: 2,
            ..TaskFamilyConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let cloud = CloudKnowledge::from_family(&family, 16, 200, 1.0, &mut rng).unwrap();
    (cloud, family)
}

#[test]
fn loopback_fleet_fetches_priors_and_fits_concurrently() {
    let (cloud, family) = fitted_cloud();
    let prior = cloud.prior().clone();
    let k = prior.num_components();
    let expected_payload = dro_edge::transfer::serialize_prior(&prior);

    for workers in [1, 4] {
        let mut server = PriorServer::bind("127.0.0.1:0", workers_config(workers)).unwrap();
        server.register_prior(TASK_ID, &prior);
        let addr = server.addr();

        const CLIENTS: usize = 5;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let family = family.clone();
                std::thread::spawn(move || {
                    let mut client =
                        PriorClient::new(TcpConnector::new(addr), RetryPolicy::default());
                    client.ping().expect("server must answer pings");

                    // Fetch the prior over real TCP and check it survived.
                    let fetched = client.fetch_prior(TASK_ID).expect("prior fetch");
                    assert_eq!(fetched.num_components(), k);
                    assert_eq!(fetched.dim(), 5); // packed: 4 features + bias

                    // Run one EM fit against local few-shot data.
                    let mut rng = seeded_rng(9_000 + i as u64);
                    let task = family.sample_task(&mut rng);
                    let train = task.generate(25, &mut rng);
                    let fit = EdgeLearner::new(fleet_learner_config(), fetched)
                        .unwrap()
                        .fit(&train)
                        .expect("EM fit");
                    assert!(fit.robust_risk.is_finite());

                    // Report the fitted model back to the cloud.
                    let params = fit.model.to_packed();
                    assert!(client
                        .report_model(TASK_ID, i as u64, 1, params.clone())
                        .expect("report"));
                    (client.metrics(), params)
                })
            })
            .collect();

        let mut total_client_bytes_out = 0;
        let mut total_client_bytes_in = 0;
        for h in handles {
            let (metrics, params) = h.join().expect("client thread");
            assert_eq!(metrics.requests, 3); // ping + fetch + report
            assert_eq!(metrics.responses_ok, 3);
            assert_eq!(metrics.errors, 0);
            assert_eq!(params.len(), 5); // dim 4 features + bias
            total_client_bytes_out += metrics.bytes_out;
            total_client_bytes_in += metrics.bytes_in;
        }

        // Server-side accounting agrees with the clients byte-for-byte.
        let m = server.metrics();
        assert_eq!(m.requests, 3 * CLIENTS as u64);
        assert_eq!(m.responses_ok, 3 * CLIENTS as u64);
        assert_eq!(m.bytes_in, total_client_bytes_out);
        assert_eq!(m.bytes_out, total_client_bytes_in);
        assert!(m.connections >= 3 * CLIENTS as u64);
        assert_eq!(m.latency_count(), 3 * CLIENTS as u64);

        // Every device's report arrived; this harness consumes them exactly
        // once, so it drains rather than cloning the inbox.
        let reports = server.take_reports();
        assert_eq!(reports.len(), CLIENTS);
        assert!(reports.iter().all(|r| r.task_id == TASK_ID));
        assert!(
            server.take_reports().is_empty(),
            "the drain must empty the inbox"
        );

        // The measured prior frame is exactly what the simulator charges: the
        // prior lives over packed parameters (feature dim 4 + bias = 5).
        let response_frame = frame::encode(&frame::Message::PriorResponse {
            payload: expected_payload.clone(),
        });
        assert_eq!(
            response_frame.len() as u64,
            dre_edgesim::prior_transfer_bytes(k, 4)
        );

        server.shutdown();
    }
}

#[test]
fn keepalive_fleet_reuses_one_connection_per_device_and_hits_the_frame_cache() {
    let (cloud, _) = fitted_cloud();
    let prior = cloud.prior().clone();

    for workers in [1, 4] {
        let mut server = PriorServer::bind("127.0.0.1:0", workers_config(workers)).unwrap();
        server.register_prior(TASK_ID, &prior);
        let addr = server.addr();

        const CLIENTS: usize = 5;
        const REQUESTS: u64 = 3; // ping + fetch + report
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client =
                        PriorClient::new(TcpConnector::new(addr), RetryPolicy::default())
                            .keep_alive(true);
                    client.ping().expect("server must answer pings");
                    let fetched = client.fetch_prior(TASK_ID).expect("prior fetch");
                    client
                        .report_model(TASK_ID, i as u64, 1, vec![i as f64; fetched.dim()])
                        .expect("report");
                    assert!(client.has_live_stream(), "stream must survive the round");
                    client.metrics()
                })
            })
            .collect();

        let mut total_client_bytes_out = 0;
        let mut total_client_bytes_in = 0;
        for h in handles {
            let metrics = h.join().expect("client thread");
            // The whole round rides one connection: connect once, reuse twice.
            assert_eq!(metrics.connections, 1);
            assert_eq!(metrics.reused_connections, REQUESTS - 1);
            assert_eq!(metrics.requests, REQUESTS);
            assert_eq!(metrics.responses_ok, REQUESTS);
            assert_eq!(metrics.errors, 0);
            total_client_bytes_out += metrics.bytes_out;
            total_client_bytes_in += metrics.bytes_in;
        }

        // Byte accounting stays exact under reuse, and every prior fetch was
        // served from the pre-encoded frame cache — no per-request encode.
        let m = server.metrics();
        assert_eq!(m.requests, REQUESTS * CLIENTS as u64);
        assert_eq!(m.responses_ok, REQUESTS * CLIENTS as u64);
        assert_eq!(m.bytes_in, total_client_bytes_out);
        assert_eq!(m.bytes_out, total_client_bytes_in);
        assert_eq!(m.prior_cache_hits, CLIENTS as u64);
        assert_eq!(m.prior_cache_builds, 1);
        assert_eq!(m.latency_count(), REQUESTS * CLIENTS as u64);
        // One TCP connection per device, not one per request.
        assert_eq!(m.connections, CLIENTS as u64);

        server.shutdown();
    }
}

#[test]
fn keepalive_stream_survives_server_kill_and_restart_via_retry() {
    let (cloud, family) = fitted_cloud();
    let prior = cloud.prior().clone();
    let payload = dro_edge::transfer::serialize_prior(&prior);
    for workers in [1, 4] {
        let serve_config = ServeConfig {
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            workers,
            ..ServeConfig::default()
        };

        let mut server = PriorServer::bind("127.0.0.1:0", serve_config.clone()).unwrap();
        server.state().register_payload(TASK_ID, payload.clone());
        let addr = server.addr();

        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            jitter_seed: 5,
        };
        let mut client = PriorClient::new(TcpConnector::new(addr), policy.clone()).keep_alive(true);
        assert_eq!(client.fetch_prior_payload(TASK_ID).unwrap(), payload);
        assert_eq!(client.fetch_prior_payload(TASK_ID).unwrap(), payload);
        assert!(client.has_live_stream());

        // A runtime device shares the link mode; its breaker is Closed after a
        // healthy fresh-prior fit.
        let mut runtime = dre_serve::EdgeRuntime::new(
            TcpConnector::new(addr),
            policy.clone(),
            dre_serve::EdgeRuntimeConfig {
                task_id: TASK_ID,
                learner: fleet_learner_config(),
                keep_alive: true,
                ..dre_serve::EdgeRuntimeConfig::default()
            },
        );
        let mut rng = seeded_rng(31);
        let train = family.sample_task(&mut rng).generate(25, &mut rng);
        let fit = runtime.fit_step(&train).unwrap();
        assert_eq!(fit.mode, dro_edge::FitMode::FreshPrior);

        // Kill the server, then restart it on the same port.
        server.shutdown();
        drop(server);
        let mut restarted = None;
        for _ in 0..100 {
            match PriorServer::bind(&addr.to_string(), serve_config.clone()) {
                Ok(s) => {
                    restarted = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut restarted = restarted.expect("could not rebind the server port");
        restarted.state().register_payload(TASK_ID, payload.clone());

        // The held stream is dead. Reusing it fails mid-frame, the failure is
        // retryable, and the retry's fresh connect reaches the new server —
        // the fetch still succeeds.
        let before = client.metrics();
        assert_eq!(client.fetch_prior_payload(TASK_ID).unwrap(), payload);
        let after = client.metrics();
        assert!(
            after.retries > before.retries,
            "reconnect must cost a retry"
        );
        assert_eq!(
            after.connections,
            before.connections + 1,
            "exactly one fresh connect"
        );
        assert!(client.has_live_stream(), "the new stream is held again");
        // And the fresh stream is reused from then on.
        assert_eq!(client.fetch_prior_payload(TASK_ID).unwrap(), payload);
        assert_eq!(client.metrics().connections, after.connections);

        // The runtime device recovers the same way: a fresh-prior fit through
        // the retry, with breaker counters consistent — reconnection is a
        // retry, not an outage, so the breaker never opens.
        let fit = runtime.fit_step(&train).unwrap();
        assert_eq!(fit.mode, dro_edge::FitMode::FreshPrior);
        assert_eq!(
            runtime.breaker().state(),
            dre_serve::BreakerState::Closed,
            "a reconnect absorbed by the retry budget must not trip the breaker"
        );
        assert_eq!(runtime.breaker().opens(), 0);
        assert_eq!(runtime.counters().fetch_failures, 0);
        assert_eq!(runtime.counters().short_circuits, 0);
        assert!(runtime.client().metrics().reused_connections >= 1);

        restarted.shutdown();
    }
}

#[test]
fn faulty_transport_recovers_within_the_retry_budget() {
    let (cloud, _) = fitted_cloud();
    let prior = cloud.prior().clone();
    let expected_payload = dro_edge::transfer::serialize_prior(&prior);

    let faults = FaultConfig {
        drop_prob: 0.2,
        truncate_prob: 0.2,
        corrupt_prob: 0.2,
        delay_prob: 0.1,
        delay: Duration::from_micros(200),
    };
    let policy = RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(2),
        jitter_seed: 11,
    };

    let run = || {
        let state = Arc::new(ServerState::new());
        state.register_payload(TASK_ID, expected_payload.clone());
        let connector = FaultyConnector::new(
            InMemoryServer::with_state(Arc::clone(&state)),
            FaultInjector::new(2024, faults.clone()),
        );
        let mut client = PriorClient::new(connector, policy.clone());
        for _ in 0..20 {
            // Every fetch must succeed within the retry budget, and the
            // delivered payload must be byte-identical to what the server
            // registered — zero checksum-corrupted payloads get through.
            let payload = client.fetch_prior_payload(TASK_ID).expect("within budget");
            assert_eq!(payload, expected_payload);
        }
        let fault_counts = client.connector().fault_counts();
        (client.metrics(), fault_counts, state.metrics())
    };

    let (client_a, faults_a, server_a) = run();
    let (client_b, faults_b, server_b) = run();

    // The adverse paths actually ran…
    assert!(faults_a.drops > 0, "drop path never exercised");
    assert!(faults_a.truncations > 0, "truncation path never exercised");
    assert!(faults_a.bit_flips > 0, "bit-flip path never exercised");
    assert!(client_a.retries > 0, "no retry was ever needed");
    assert_eq!(client_a.responses_ok, 20);
    assert_eq!(client_a.errors, 0);

    // …and the whole scenario is deterministic across runs (wall-clock
    // latency histograms excluded).
    assert_eq!(faults_a, faults_b);
    assert_eq!(
        client_a.deterministic_counters(),
        client_b.deterministic_counters()
    );
    assert_eq!(
        server_a.deterministic_counters(),
        server_b.deterministic_counters()
    );
}

#[test]
fn burst_beyond_queue_bound_is_shed_with_busy_and_no_worker_wedges() {
    // One worker, one queue slot: a connection that never speaks parks the
    // worker, a second fills the queue, and everything past that must be
    // shed with `Busy` — never queued unboundedly, never wedging a worker.
    let config = ServeConfig {
        workers: 1,
        queue_bound: 1,
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        busy_retry_after: Duration::from_millis(7),
        ..ServeConfig::default()
    };
    let mut server = PriorServer::bind("127.0.0.1:0", config).unwrap();
    server.state().register_payload(TASK_ID, vec![3, 1, 4]);
    let addr = server.addr();

    // The squatter: connects, says nothing, holds the single worker.
    let squatter = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150)); // worker picks it up

    // The queue filler: sends a request that will only be answered once
    // the squatter releases the worker.
    let mut queued = TcpTransport::with_deadlines(
        std::net::TcpStream::connect(addr).unwrap(),
        Some(Duration::from_secs(5)),
        Some(Duration::from_secs(2)),
    )
    .unwrap();
    frame::write_frame(&mut queued, &frame::Message::Ping).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // accept loop queues it

    // The burst: every further connection gets an immediate `Busy` reply
    // carrying the configured retry-after hint, then a hangup.
    const BURST: usize = 3;
    for _ in 0..BURST {
        let mut t = TcpTransport::with_deadlines(
            std::net::TcpStream::connect(addr).unwrap(),
            Some(Duration::from_secs(2)),
            Some(Duration::from_secs(2)),
        )
        .unwrap();
        frame::write_frame(&mut t, &frame::Message::PriorRequest { task_id: TASK_ID }).unwrap();
        let (reply, _) = frame::read_frame(&mut t, dre_serve::DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(reply, frame::Message::Busy { retry_after_ms: 7 });
    }

    // A retrying client sees the same shedding as a typed, retryable error
    // once its budget runs out mid-overload.
    let mut impatient = PriorClient::new(TcpConnector::new(addr), RetryPolicy::no_retries());
    let err = impatient.ping().unwrap_err();
    match err {
        dre_serve::ServeError::RetriesExhausted { last, .. } => {
            assert!(
                matches!(*last, dre_serve::ServeError::Busy { retry_after }
                    if retry_after == Duration::from_millis(7)),
                "overload must surface as Busy with the server's hint"
            );
        }
        other => panic!("expected RetriesExhausted over Busy, got {other}"),
    }
    assert_eq!(impatient.metrics().busy, 1);

    // Release the worker: the queued connection drains and is answered —
    // the worker was waiting, not wedged.
    drop(squatter);
    let (reply, _) = frame::read_frame(&mut queued, dre_serve::DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(reply, frame::Message::Ping);
    drop(queued);

    // With the overload gone, a fresh client is served normally again.
    let mut after = PriorClient::new(TcpConnector::new(addr), RetryPolicy::default());
    assert_eq!(after.fetch_prior_payload(TASK_ID).unwrap(), vec![3, 1, 4]);

    let m = server.metrics();
    assert!(
        m.shed_connections >= (BURST + 1) as u64,
        "burst connections must be shed, got {}",
        m.shed_connections
    );
    assert!(m.busy >= (BURST + 1) as u64, "busy replies: {}", m.busy);
    // Shutdown joins every thread — a wedged worker would hang here.
    server.shutdown();
}

#[test]
fn report_flood_beyond_the_inbox_cap_sheds_with_exact_accounting() {
    // A tiny cap + a flood over real TCP: every report is acknowledged
    // (the device-side leg never fails), the kept prefix is exactly the
    // first `cap` reports in arrival order, the overflow is counted in
    // `reports_shed`, and draining re-opens the admission window.
    const CAP: usize = 3;
    const FLOOD: usize = 10;
    for workers in [1, 4] {
        let config = ServeConfig {
            workers,
            report_inbox_cap: CAP,
            ..ServeConfig::default()
        };
        let mut server = PriorServer::bind("127.0.0.1:0", config).unwrap();
        let mut client =
            PriorClient::new(TcpConnector::new(server.addr()), RetryPolicy::no_retries())
                .keep_alive(true);

        for i in 0..FLOOD {
            let accepted = client
                .report_model(TASK_ID, 0, i as u64 + 1, vec![i as f64; 4])
                .expect("a shed report must still be acknowledged");
            assert_eq!(accepted, i < CAP, "shed reports carry a rejected ack");
        }
        let m = server.metrics();
        assert_eq!(m.requests, FLOOD as u64);
        assert_eq!(m.responses_ok, FLOOD as u64, "shedding is not an error");
        assert_eq!(m.errors, 0);
        assert_eq!(m.reports_shed, (FLOOD - CAP) as u64);

        let kept = server.take_reports();
        assert_eq!(kept.len(), CAP);
        for (i, r) in kept.iter().enumerate() {
            assert_eq!(r.params, vec![i as f64; 4], "kept prefix must be in order");
        }

        // The drain freed the window: the next report is kept, not shed.
        assert!(client
            .report_model(TASK_ID, 0, FLOOD as u64 + 1, vec![42.0; 4])
            .unwrap());
        assert_eq!(server.take_reports().len(), 1);
        assert_eq!(server.metrics().reports_shed, (FLOOD - CAP) as u64);
        server.shutdown();
    }
}

#[test]
fn loopback_server_answers_protocol_errors_without_dying() {
    for workers in [1, 4] {
        let mut server = PriorServer::bind("127.0.0.1:0", workers_config(workers)).unwrap();
        let mut client =
            PriorClient::new(TcpConnector::new(server.addr()), RetryPolicy::no_retries());
        // Unknown task → typed remote error, fatal (no retries consumed).
        let err = client.fetch_prior(77).unwrap_err();
        assert!(matches!(
            err,
            dre_serve::ServeError::Remote {
                code: dre_serve::ErrorCode::UnknownTask,
                ..
            }
        ));
        // The connection-handling loop survives: a follow-up ping succeeds.
        client.ping().unwrap();
        assert_eq!(client.metrics().retries, 0);
        server.shutdown();
    }
}

#[test]
fn two_workers_multiplex_a_thousand_keepalive_connections() {
    // Far more connections than workers: the readiness-polled event loops
    // must multiplex them all, with exact request/response accounting.
    const CONNS: usize = 1000;
    const ROUNDS: usize = 2;
    let payload = vec![0xA5u8; 96];
    let expected = frame::encode(&frame::Message::PriorResponse {
        payload: payload.clone(),
    });

    let config = ServeConfig {
        workers: 2,
        max_connections: Some(CONNS + 8),
        read_timeout: Some(Duration::from_secs(60)),
        write_timeout: Some(Duration::from_secs(60)),
        ..ServeConfig::default()
    };
    let mut server = PriorServer::bind("127.0.0.1:0", config).unwrap();
    server.state().register_payload(TASK_ID, payload);
    let addr = server.addr();

    let mut streams: Vec<_> = (0..CONNS)
        .map(|_| {
            TcpTransport::with_deadlines(
                std::net::TcpStream::connect(addr).unwrap(),
                Some(Duration::from_secs(60)),
                Some(Duration::from_secs(60)),
            )
            .unwrap()
        })
        .collect();

    // Every connection stays open across rounds; each round touches every
    // stream so all of them are live in the workers' poll sets at once.
    for _ in 0..ROUNDS {
        for t in &mut streams {
            frame::write_frame(&mut *t, &frame::Message::PriorRequest { task_id: TASK_ID })
                .unwrap();
        }
        for t in &mut streams {
            let (reply, _) = frame::read_frame(&mut *t, dre_serve::DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(
                frame::encode(&reply),
                expected,
                "reply must match a fresh encode"
            );
            match reply {
                frame::Message::PriorResponse { payload: p } => {
                    assert_eq!(p.len(), 96);
                    assert!(p.iter().all(|&b| b == 0xA5), "corrupted payload observed");
                }
                other => panic!("expected PriorResponse, got {other:?}"),
            }
        }
    }
    drop(streams);

    let m = server.metrics();
    assert_eq!(m.connections, CONNS as u64, "every connection admitted");
    assert_eq!(m.shed_connections, 0, "nothing shed under the raised cap");
    assert_eq!(m.requests, (CONNS * ROUNDS) as u64, "exact request count");
    assert_eq!(m.responses_ok, (CONNS * ROUNDS) as u64);
    assert_eq!(m.prior_cache_hits, (CONNS * ROUNDS) as u64);
    assert_eq!(m.errors, 0);
    assert_eq!(m.busy, 0);
    assert_eq!(m.checksum_failures, 0);
    server.shutdown();
}

#[test]
fn pipelined_burst_is_answered_in_order_with_coalesced_writes() {
    const BURST: usize = 64;
    let payload = vec![0x5Au8; 48];
    let expected = frame::encode(&frame::Message::PriorResponse {
        payload: payload.clone(),
    });

    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let mut server = PriorServer::bind("127.0.0.1:0", config).unwrap();
    server.state().register_payload(TASK_ID, payload);

    let mut t = TcpTransport::with_deadlines(
        std::net::TcpStream::connect(server.addr()).unwrap(),
        Some(Duration::from_secs(10)),
        Some(Duration::from_secs(10)),
    )
    .unwrap();
    // One write carrying BURST back-to-back requests…
    let one_request = frame::encode(&frame::Message::PriorRequest { task_id: TASK_ID });
    let mut burst = Vec::with_capacity(one_request.len() * BURST);
    for _ in 0..BURST {
        burst.extend_from_slice(&one_request);
    }
    use dre_serve::Transport as _;
    t.send(&burst).unwrap();
    // …gets BURST in-order replies, every one byte-identical to a fresh
    // encode of the registered prior.
    for _ in 0..BURST {
        let (reply, _) = frame::read_frame(&mut t, dre_serve::DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(frame::encode(&reply), expected);
    }
    drop(t);

    let m = server.metrics();
    // Exact accounting: one connection, BURST requests, all cache hits…
    assert_eq!(m.connections, 1);
    assert_eq!(m.requests, BURST as u64);
    assert_eq!(m.responses_ok, BURST as u64);
    assert_eq!(m.prior_cache_hits, BURST as u64);
    assert_eq!(m.errors, 0);
    // …and the replies were not dribbled out one write per request: at
    // least one socket flush coalesced several pipelined replies.
    assert!(
        m.batched_writes > 0,
        "pipelined replies must coalesce into batched writes"
    );
    assert_eq!(
        m.bytes_in,
        (one_request.len() * BURST) as u64,
        "request byte accounting"
    );
    assert_eq!(
        m.bytes_out,
        (expected.len() * BURST) as u64,
        "response byte accounting"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Sharded prior plane
// ---------------------------------------------------------------------------

/// A fast retry policy for shard failover tests.
fn fast_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: seed,
    }
}

#[test]
fn sharded_plane_routes_every_task_to_its_owner() {
    for workers in [1, 4] {
        let mut plane = dre_serve::ShardedPriorPlane::bind(dre_serve::ShardPlaneConfig {
            shards: 3,
            replication: 2,
            serve: workers_config(workers),
            ..dre_serve::ShardPlaneConfig::default()
        })
        .unwrap();
        const TASKS: u64 = 12;
        for task in 0..TASKS {
            plane.register_payload(task, vec![task as u8; 16]);
        }

        let directory = plane.directory();
        for task in 0..TASKS {
            let mut client = directory.client_for(task, fast_policy(task));
            assert_eq!(
                client.fetch_prior_payload(task).unwrap(),
                vec![task as u8; 16]
            );
            let m = client.metrics();
            assert_eq!(m.retries, 0, "a routed fetch must land first try");
            assert_eq!(m.errors, 0);
        }

        // Direct routing means zero redirects and zero failovers anywhere…
        let routing = directory.metrics().snapshot();
        assert_eq!(routing.shard_failovers, 0);
        assert_eq!(routing.map_refreshes, 0);
        let mut cache_hits = 0;
        for i in 0..3 {
            let m = plane.shard_metrics(i).unwrap();
            assert_eq!(m.misroutes, 0, "shard {i} saw a misroute");
            cache_hits += m.prior_cache_hits;
        }
        // …and every fetch was served from an owner's pre-encoded frame cache.
        assert_eq!(cache_hits, TASKS);

        // Any member serves the epoch-stamped map, byte-equal across shards.
        let maps: Vec<_> = (0..3)
            .map(|i| {
                let mut c = PriorClient::new(
                    TcpConnector::new(plane.addrs()[i]),
                    RetryPolicy::no_retries(),
                );
                c.fetch_shard_map().unwrap()
            })
            .collect();
        assert_eq!(maps[0].epoch, plane.epoch());
        assert_eq!(maps[0], maps[1]);
        assert_eq!(maps[1], maps[2]);

        plane.shutdown();
    }
}

#[test]
fn misrouted_request_is_a_retryable_redirect_and_recovers_in_one_retry() {
    // Replication 1: every task has exactly one owner, so a request sent
    // to any other shard is a guaranteed misroute.
    for workers in [1, 4] {
        let mut plane = dre_serve::ShardedPriorPlane::bind(dre_serve::ShardPlaneConfig {
            shards: 2,
            replication: 1,
            serve: workers_config(workers),
            ..dre_serve::ShardPlaneConfig::default()
        })
        .unwrap();
        plane.register_payload(TASK_ID, vec![7; 8]);
        let owner = plane.shard_map().owners(TASK_ID)[0];
        let wrong = 1 - owner;

        // Hitting the wrong shard directly: the reply is a retryable
        // Misrouted redirect — not a fatal UnknownTask.
        let mut naive = PriorClient::new(
            TcpConnector::new(plane.addrs()[wrong]),
            RetryPolicy::no_retries(),
        );
        match naive.fetch_prior_payload(TASK_ID).unwrap_err() {
            dre_serve::ServeError::RetriesExhausted { last, .. } => {
                assert!(
                    matches!(*last, dre_serve::ServeError::Misrouted { task_id, .. }
                        if task_id == TASK_ID),
                    "expected a Misrouted redirect, got {last}"
                );
                assert!(last.is_retryable(), "a redirect must be retryable");
            }
            other => panic!("expected RetriesExhausted over Misrouted, got {other}"),
        }
        assert_eq!(plane.shard_metrics(wrong).unwrap().misroutes, 1);

        // A routed client holding a stale map recovers within one retry: the
        // redirect triggers a map refresh, and the retry lands on the new
        // owner. Build the stale directory first, then rebalance underneath
        // it until the old owner genuinely loses the task.
        let stale = plane.directory();
        let mut moved_task = None;
        for task in 0..256u64 {
            plane.register_payload(task, vec![task as u8; 4]);
        }
        let _added = plane.add_shard().unwrap();
        for task in 0..256u64 {
            let old_owner = stale.map().owners(task)[0];
            if !plane.shard_map().owners(task).contains(&old_owner) {
                moved_task = Some(task);
                break;
            }
        }
        let task = moved_task.expect("rebalancing 256 tasks must move at least one");

        let mut client = stale.client_for(task, fast_policy(99));
        let misroutes_before: u64 = (0..plane.addrs().len())
            .filter_map(|i| plane.shard_metrics(i))
            .map(|m| m.misroutes)
            .sum();
        assert_eq!(
            client.fetch_prior_payload(task).unwrap(),
            vec![task as u8; 4]
        );
        // Exact accounting: one redirect served, one map refresh, one retry,
        // zero replica failovers, and the fetch still succeeded cleanly.
        let m = client.metrics();
        assert_eq!(m.retries, 1, "recovery must take exactly one retry");
        assert_eq!(m.responses_ok, 1);
        assert_eq!(m.errors, 0);
        let routing = stale.metrics().snapshot();
        assert_eq!(routing.map_refreshes, 1);
        assert_eq!(routing.shard_failovers, 0);
        let misroutes_after: u64 = (0..plane.addrs().len())
            .filter_map(|i| plane.shard_metrics(i))
            .map(|m| m.misroutes)
            .sum();
        assert_eq!(misroutes_after, misroutes_before + 1);
        assert_eq!(
            stale.epoch(),
            plane.epoch(),
            "the refresh adopted the new map"
        );

        // The stream re-routed: follow-up fetches are direct, no new retries.
        assert_eq!(
            client.fetch_prior_payload(task).unwrap(),
            vec![task as u8; 4]
        );
        assert_eq!(client.metrics().retries, 1);

        plane.shutdown();
    }
}

#[test]
fn routed_client_fails_over_to_the_replica_when_the_primary_dies() {
    for workers in [1, 4] {
        let mut plane = dre_serve::ShardedPriorPlane::bind(dre_serve::ShardPlaneConfig {
            shards: 3,
            replication: 2,
            serve: ServeConfig {
                read_timeout: Some(Duration::from_secs(2)),
                write_timeout: Some(Duration::from_secs(2)),
                workers,
                ..ServeConfig::default()
            },
            ..dre_serve::ShardPlaneConfig::default()
        })
        .unwrap();
        plane.register_payload(TASK_ID, vec![42; 24]);
        let owners = plane.shard_map().owners(TASK_ID);

        let directory = plane.directory();
        let mut client = directory.client_for(TASK_ID, fast_policy(17));
        assert_eq!(client.fetch_prior_payload(TASK_ID).unwrap(), vec![42; 24]);

        // Kill the primary: the next fetch fails over to the replica inside
        // the retry budget, counting exactly one failover.
        plane.kill_shard(owners[0]);
        assert_eq!(client.fetch_prior_payload(TASK_ID).unwrap(), vec![42; 24]);
        let m = client.metrics();
        assert!(m.retries >= 1, "failover must cost at least one retry");
        assert_eq!(m.errors, 0);
        let routing = directory.metrics().snapshot();
        assert!(routing.shard_failovers >= 1, "failover must be counted");
        assert_eq!(routing.map_refreshes, 0, "a dead shard is not a misroute");
        // The replica served the fetch from its byte-identical frame cache.
        assert!(plane.shard_metrics(owners[1]).unwrap().prior_cache_hits >= 1);

        // Restarting the primary replays its payloads; the plane heals.
        plane.restart_shard(owners[0]).unwrap();
        let entry = plane
            .handle(owners[0])
            .unwrap()
            .state()
            .prior_entry(TASK_ID)
            .expect("restart must replay owned payloads");
        assert_eq!(*entry.payload, vec![42; 24]);

        plane.shutdown();
    }
}

#[test]
fn default_sized_plane_is_hit_clean_at_any_membership() {
    // Whatever the plane's size and worker count, a default-config plane
    // must route every fetch straight to an owner — zero retries, zero
    // failovers, zero misroutes. The 4-shard, 4-worker point is the default
    // itself.
    let default = dre_serve::ShardPlaneConfig::default();
    assert_eq!((default.shards, default.serve.workers), (4, 4));
    let mut configs = vec![default];
    for (shards, workers) in [(1, 1), (1, 4), (4, 1)] {
        configs.push(dre_serve::ShardPlaneConfig {
            shards,
            serve: workers_config(workers),
            ..dre_serve::ShardPlaneConfig::default()
        });
    }
    for config in configs {
        let shards = config.shards;
        let mut plane = dre_serve::ShardedPriorPlane::bind(config).unwrap();
        assert_eq!(plane.addrs().len(), shards);

        const TASKS: u64 = 8;
        for task in 0..TASKS {
            plane.register_payload(task, vec![task as u8 ^ 0x5A; 24]);
        }
        let directory = plane.directory();
        for task in 0..TASKS {
            let mut client = directory.client_for(task, fast_policy(task));
            assert_eq!(
                client.fetch_prior_payload(task).unwrap(),
                vec![task as u8 ^ 0x5A; 24]
            );
            let m = client.metrics();
            assert_eq!(
                m.retries, 0,
                "task {task} needed a retry on a healthy plane"
            );
            assert_eq!(m.errors, 0);
        }
        let routing = directory.metrics().snapshot();
        assert_eq!(routing.shard_failovers, 0);
        assert_eq!(routing.map_refreshes, 0);
        let mut cache_hits = 0;
        for i in 0..shards {
            let m = plane.shard_metrics(i).unwrap();
            assert_eq!(m.misroutes, 0, "shard {i} saw a misroute");
            cache_hits += m.prior_cache_hits;
        }
        assert_eq!(cache_hits, TASKS);
        plane.shutdown();
    }
}

#[test]
fn unsharded_server_rejects_shard_map_requests_as_unexpected() {
    for workers in [1, 4] {
        let mut server = PriorServer::bind("127.0.0.1:0", workers_config(workers)).unwrap();
        let mut client =
            PriorClient::new(TcpConnector::new(server.addr()), RetryPolicy::no_retries());
        let err = client.fetch_shard_map().unwrap_err();
        assert!(
            matches!(
                err,
                dre_serve::ServeError::Remote {
                    code: dre_serve::ErrorCode::Unexpected,
                    ..
                }
            ),
            "an unsharded server must answer map requests with a fatal error, got {err}"
        );
        // The server survives; normal traffic continues.
        client.ping().unwrap();
        server.shutdown();
    }
}
