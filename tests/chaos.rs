//! Deterministic chaos harness for the graceful-degradation edge runtime.
//!
//! A small fleet of [`EdgeRuntime`] devices runs fetch→fit→report rounds
//! against a shared prior server while a seeded [`FaultInjector`] mangles
//! the link. The harness asserts the three load-bearing properties of the
//! degradation ladder:
//!
//! 1. **Floor** — fleet accuracy degrades toward the local-only ERM
//!    baseline as the fault rate rises and never falls below it; at fault
//!    rate 1.0 every device's model is *bit-identical* to the baseline.
//! 2. **Recovery** — after a hard partition heals (and after a real TCP
//!    server crash + restart), the circuit breaker re-closes and fresh-
//!    prior accuracy returns to its pre-fault value, bit-for-bit.
//! 3. **Determinism** — at a fixed seed the whole scenario (mode traces,
//!    fault schedules, client/server counters, fitted parameters) is
//!    bit-identical across runs, checked at several seeds.
//!
//! Everything is driven by logical step clocks — breaker cooldowns and
//! partition windows never consult the wall clock — so the suite is exact,
//! not statistical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dre_bench::degraded::{degraded_faults, degraded_policy};
use dre_bench::{
    closed_loop, covered_devices, fleet_learner_config, CoveredDevice, FLOOR_ERM_LAMBDA,
};
use dre_data::TaskFamily;
use dre_models::metrics;
use dre_prob::seeded_rng;
use dre_serve::{
    BreakerConfig, BreakerState, EdgeRuntime, EdgeRuntimeConfig, FaultConfig, FaultInjector,
    FaultyConnector, InMemoryServer, PriorServer, RetryPolicy, ServeConfig, ServerState,
    TcpConnector,
};
use dro_edge::{baselines, CloudKnowledge, FitMode, ModeShares};

const TASK_ID: u64 = 3;
const DEVICES: usize = 4;

/// The shared scenario: a fitted cloud prior and per-device datasets,
/// fixed across every fleet run so accuracy differences come only from
/// the degradation ladder.
struct Scenario {
    state: Arc<ServerState>,
    prior_payload: Vec<u8>,
    devices: Vec<CoveredDevice>,
}

/// The harness measures the *runtime's* degradation ladder, so the fleet is
/// drawn from tasks the cloud prior actually covers (see
/// [`covered_devices`]), on the closed loop's two-cluster family.
fn scenario() -> Scenario {
    let mut rng = seeded_rng(7_400);
    let family = TaskFamily::generate(&closed_loop::family_config(), &mut rng).unwrap();
    let cloud = CloudKnowledge::from_family(&family, 24, 300, 1.0, &mut rng).unwrap();
    let prior_payload = dro_edge::transfer::serialize_prior(cloud.prior());
    let state = Arc::new(ServerState::new());
    state.register_payload(TASK_ID, prior_payload.clone());
    let devices = covered_devices(&family, cloud.prior(), DEVICES, &mut rng);
    Scenario {
        state,
        prior_payload,
        devices,
    }
}

fn runtime_config(device_id: u64) -> EdgeRuntimeConfig {
    EdgeRuntimeConfig {
        task_id: TASK_ID,
        device_id,
        learner: fleet_learner_config(),
        erm_lambda: FLOOR_ERM_LAMBDA,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_steps: 1,
            cooldown_jitter: 0,
            seed: 0,
        },
        stale_ttl: 2,
        report_models: true,
        keep_alive: false,
    }
}

/// Everything a fleet run produces that must be seed-deterministic.
#[derive(Debug, PartialEq)]
struct FleetOutcome {
    /// Per-device mode trace over the rounds.
    mode_traces: Vec<Vec<FitMode>>,
    /// Per-device final fitted parameters (bit-exact).
    final_models: Vec<Vec<f64>>,
    /// Per-device runtime counters.
    counters: Vec<dre_serve::RuntimeCounters>,
    /// Per-device client-side deterministic transfer counters.
    client_counters: Vec<Vec<u64>>,
    /// Per-device injected-fault counts.
    fault_counts: Vec<dre_serve::FaultCounts>,
    /// Mean held-out accuracy over devices, per round.
    round_accuracy: Vec<f64>,
}

impl FleetOutcome {
    fn mean_accuracy(&self) -> f64 {
        self.round_accuracy.iter().sum::<f64>() / self.round_accuracy.len() as f64
    }

    fn mode_shares(&self) -> ModeShares {
        let mut shares = ModeShares::default();
        for trace in &self.mode_traces {
            for mode in trace {
                shares.push(*mode);
            }
        }
        shares
    }
}

/// Runs `rounds` fleet rounds of `DEVICES` runtimes over in-memory faulty
/// links, advancing each device's logical fault clock once per round.
fn run_fleet(sc: &Scenario, faults: &FaultConfig, seed: u64, rounds: usize) -> FleetOutcome {
    // Every invocation shares the scenario's `ServerState`, whose per-device
    // replay windows outlive the fleet. A fresh device-id block per run keeps
    // each fleet's seq-1 reports admissible, so identical seeds replay
    // bit-identically instead of tripping the replay guard.
    static DEVICE_BLOCK: AtomicU64 = AtomicU64::new(0);
    let base = DEVICE_BLOCK.fetch_add(DEVICES as u64, Ordering::Relaxed);
    let mut fleet: Vec<_> = (0..DEVICES)
        .map(|dev| {
            let connector = FaultyConnector::new(
                InMemoryServer::with_state(Arc::clone(&sc.state)),
                FaultInjector::new(seed.wrapping_mul(1_000) + dev as u64, faults.clone()),
            );
            EdgeRuntime::new(
                connector,
                degraded_policy(),
                runtime_config(base + dev as u64),
            )
        })
        .collect();

    let mut round_accuracy = Vec::with_capacity(rounds);
    let mut final_models = vec![Vec::new(); DEVICES];
    for _round in 0..rounds {
        let mut acc = 0.0;
        for (dev, rt) in fleet.iter_mut().enumerate() {
            let data = &sc.devices[dev];
            let fit = rt.fit_step(&data.train).expect("fit never hard-fails");
            acc += metrics::accuracy(&fit.model, data.test.features(), data.test.labels())
                .unwrap();
            final_models[dev] = fit.model.to_packed();
            rt.connector().advance_step();
        }
        round_accuracy.push(acc / DEVICES as f64);
    }

    FleetOutcome {
        mode_traces: fleet.iter().map(|rt| rt.mode_trace().to_vec()).collect(),
        final_models,
        counters: fleet.iter().map(|rt| rt.counters()).collect(),
        client_counters: fleet
            .iter()
            .map(|rt| rt.client().metrics().deterministic_counters().to_vec())
            .collect(),
        fault_counts: fleet.iter().map(|rt| rt.connector().fault_counts()).collect(),
        round_accuracy,
    }
}

/// Mean held-out accuracy of the pure local-only ERM fleet over the first
/// `fleet_size` devices — the floor the degradation ladder must never sink
/// below.
fn local_only_floor(sc: &Scenario, fleet_size: usize) -> f64 {
    sc.devices[..fleet_size].iter().map(|d| d.floor_acc).sum::<f64>() / fleet_size as f64
}

#[test]
fn accuracy_degrades_monotonically_and_never_below_the_local_floor() {
    let sc = scenario();
    let floor = local_only_floor(&sc, DEVICES);
    let rates = [0.0, 0.35, 0.7, 1.0];
    let outcomes: Vec<_> = rates
        .iter()
        .map(|&rate| run_fleet(&sc, &degraded_faults(rate), 1, 6))
        .collect();

    let mean_accs: Vec<f64> = outcomes.iter().map(FleetOutcome::mean_accuracy).collect();
    for (i, o) in outcomes.iter().enumerate() {
        // Floor: no round of any sweep point dips below local-only ERM.
        for (round, acc) in o.round_accuracy.iter().enumerate() {
            assert!(
                *acc >= floor - 1e-12,
                "rate {} round {round}: fleet accuracy {acc:.4} fell below \
                 the local-only floor {floor:.4}",
                rates[i]
            );
        }
        // Monotone degradation across the sweep (deterministic, so exact).
        if i > 0 {
            assert!(
                mean_accs[i] <= mean_accs[i - 1] + 1e-12,
                "accuracy must not rise with the fault rate: \
                 {:.4} @ {} vs {:.4} @ {}",
                mean_accs[i],
                rates[i],
                mean_accs[i - 1],
                rates[i - 1]
            );
            // The mode mix shifts the same way: strictly fewer fresh fits.
            assert!(
                outcomes[i].mode_shares().fresh <= outcomes[i - 1].mode_shares().fresh,
                "fresh-fit share must not rise with the fault rate"
            );
        }
    }

    // A healthy link is all fresh fits and clearly beats the floor.
    let healthy = &outcomes[0];
    assert_eq!(healthy.mode_shares().fresh, healthy.mode_shares().total());
    assert!(
        healthy.mean_accuracy() > floor + 0.02,
        "fresh-prior fleet ({:.4}) must clearly beat local-only ({floor:.4})",
        healthy.mean_accuracy()
    );

    // A fully dead link is the floor exactly: every device's model is
    // bit-identical to its local ERM baseline.
    let dead = &outcomes[3];
    assert_eq!(dead.mode_shares().local, dead.mode_shares().total());
    for (dev, packed) in dead.final_models.iter().enumerate() {
        let erm = baselines::fit_local_erm(&sc.devices[dev].train, FLOOR_ERM_LAMBDA).unwrap();
        assert_eq!(packed, &erm.to_packed(), "device {dev} is not at the floor");
    }
    assert!((dead.mean_accuracy() - floor).abs() < 1e-15);
}

#[test]
fn partition_then_heal_recloses_breakers_and_recovers_accuracy_bitwise() {
    let sc = scenario();
    let floor = local_only_floor(&sc, DEVICES);

    // 2 healthy rounds, a 3-round hard partition, then 3 healed rounds.
    // The partition window is expressed on the logical step clock (one
    // step per round), so the scenario needs no wall-clock sleeps.
    let mut fleet: Vec<_> = (0..DEVICES)
        .map(|dev| {
            let connector = FaultyConnector::new(
                InMemoryServer::with_state(Arc::clone(&sc.state)),
                FaultInjector::new(9_000 + dev as u64, FaultConfig::default()),
            );
            EdgeRuntime::new(connector, degraded_policy(), runtime_config(dev as u64))
        })
        .collect();

    let mut per_round = Vec::new();
    for round in 0..8usize {
        if round == 2 {
            for rt in &fleet {
                rt.connector().partition_until(5); // steps 2, 3, 4 are dark
            }
        }
        let mut acc = 0.0;
        let mut models = Vec::new();
        for (dev, rt) in fleet.iter_mut().enumerate() {
            let data = &sc.devices[dev];
            let fit = rt.fit_step(&data.train).unwrap();
            acc += metrics::accuracy(&fit.model, data.test.features(), data.test.labels())
                .unwrap();
            models.push(fit.model.to_packed());
            rt.connector().advance_step();
        }
        per_round.push((acc / DEVICES as f64, models));
    }

    for (dev, rt) in fleet.iter().enumerate() {
        let trace = rt.mode_trace();
        // Healthy prefix, degraded middle, healed tail.
        assert_eq!(&trace[..2], &[FitMode::FreshPrior; 2], "device {dev}");
        assert!(
            trace[2..5].iter().all(|m| *m != FitMode::FreshPrior),
            "device {dev} fetched through the partition: {trace:?}"
        );
        // During the partition the ladder walks stale → local as the cache
        // ages past its TTL of 2.
        assert_eq!(trace[2], FitMode::StalePrior { age: 1 }, "device {dev}");
        assert!(
            trace[4] == FitMode::LocalOnly || matches!(trace[4], FitMode::StalePrior { .. }),
            "device {dev}: {trace:?}"
        );
        assert!(
            trace[5..].contains(&FitMode::FreshPrior),
            "device {dev} never recovered: {trace:?}"
        );
        assert_eq!(trace.last(), Some(&FitMode::FreshPrior), "device {dev}");
        // The breaker tripped during the partition and re-closed after it.
        assert!(rt.breaker().opens() >= 1, "device {dev} breaker never opened");
        assert!(rt.breaker().closes() >= 1, "device {dev} breaker never re-closed");
        assert_eq!(rt.breaker().state(), BreakerState::Closed, "device {dev}");
    }

    // Accuracy stayed at or above the floor throughout, and the healed
    // rounds reproduce the pre-partition fits bit-for-bit (same data, same
    // prior, deterministic solver).
    for (round, (acc, _)) in per_round.iter().enumerate() {
        assert!(*acc >= floor - 1e-12, "round {round} below the floor");
    }
    assert_eq!(per_round[7].1, per_round[1].1, "healed fits must be bit-identical");
    assert_eq!(per_round[7].0, per_round[1].0);
}

#[test]
fn chaos_fleets_are_bit_identical_across_runs_at_fixed_seeds() {
    let sc = scenario();
    for seed in [11, 29, 47] {
        let a = run_fleet(&sc, &degraded_faults(0.45), seed, 5);
        let b = run_fleet(&sc, &degraded_faults(0.45), seed, 5);
        assert_eq!(a, b, "seed {seed}: chaos run is not deterministic");
        // The schedule actually degraded something at this intensity…
        let shares = a.mode_shares();
        assert!(shares.fresh < shares.total(), "seed {seed}: no degradation");
        // …while other seeds genuinely differ (the harness is seeded, not
        // constant).
        if seed != 11 {
            let first = run_fleet(&sc, &degraded_faults(0.45), 11, 5);
            assert_ne!(
                first.fault_counts, a.fault_counts,
                "different seeds should draw different fault schedules"
            );
        }
    }
}

#[test]
fn sharded_fleet_survives_shard_kill_and_rebalance_bit_identically() {
    // The resharding chaos ladder: primary shard killed mid-fleet (clients
    // fail over to the replica), then a rebalance moves ownership under a
    // stale client map (redirects re-route it), then the dead shard
    // restarts and replays its payloads. Through all of it every fit must
    // stay FreshPrior at the healthy accuracy, and two runs of the whole
    // scenario at fixed seeds must agree bit-for-bit.
    let sc = scenario();
    let run = || {
        let mut plane = dre_serve::ShardedPriorPlane::bind(dre_serve::ShardPlaneConfig {
            shards: 3,
            replication: 2,
            serve: ServeConfig {
                read_timeout: Some(Duration::from_secs(2)),
                write_timeout: Some(Duration::from_secs(2)),
                ..ServeConfig::default()
            },
            ..dre_serve::ShardPlaneConfig::default()
        })
        .unwrap();
        plane.register_payload(TASK_ID, sc.prior_payload.clone());
        let owners = plane.shard_map().owners(TASK_ID);
        let directory = plane.directory();

        let mut fleet: Vec<_> = (0..2)
            .map(|dev| {
                let policy = RetryPolicy {
                    max_attempts: 4,
                    base_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(4),
                    jitter_seed: 23 + dev as u64,
                };
                EdgeRuntime::new(
                    dre_serve::ShardConnector::new(Arc::clone(&directory), TASK_ID),
                    policy,
                    runtime_config(dev as u64),
                )
            })
            .collect();

        let round = |fleet: &mut Vec<EdgeRuntime<dre_serve::ShardConnector>>| -> f64 {
            let mut acc = 0.0;
            for (dev, rt) in fleet.iter_mut().enumerate() {
                let data = &sc.devices[dev];
                let fit = rt.fit_step(&data.train).unwrap();
                acc += metrics::accuracy(&fit.model, data.test.features(), data.test.labels())
                    .unwrap();
            }
            acc / 2.0
        };

        let mut accs = Vec::new();
        accs.push(round(&mut fleet)); // healthy: direct to the primary
        plane.kill_shard(owners[0]); // primary dies; the map stays put
        accs.push(round(&mut fleet)); // failover to the replica
        accs.push(round(&mut fleet)); // replica keeps serving
        plane.add_shard().unwrap(); // rebalance: epoch bump + replay
        accs.push(round(&mut fleet)); // stale map re-routes via redirect
        plane.restart_shard(owners[0]).unwrap(); // heal: replay owned priors
        accs.push(round(&mut fleet));

        let traces: Vec<Vec<FitMode>> =
            fleet.iter().map(|rt| rt.mode_trace().to_vec()).collect();
        let counters: Vec<Vec<u64>> = fleet
            .iter()
            .map(|rt| rt.client().metrics().deterministic_counters().to_vec())
            .collect();
        let retries: u64 = fleet.iter().map(|rt| rt.client().metrics().retries).sum();
        let routing = directory.metrics().snapshot();
        plane.shutdown();
        (
            traces,
            accs,
            counters,
            retries,
            (routing.shard_failovers, routing.map_refreshes),
        )
    };

    let a = run();
    let b = run();
    assert_eq!(a, b, "the resharding chaos scenario is not deterministic");

    let (traces, accs, _counters, retries, (failovers, _refreshes)) = a;
    // The ladder never degraded: failover and re-routing kept every fit
    // fresh, at exactly the healthy accuracy.
    for (dev, trace) in traces.iter().enumerate() {
        assert_eq!(trace.len(), 5, "device {dev}");
        assert!(
            trace.iter().all(|m| *m == FitMode::FreshPrior),
            "device {dev} degraded through resharding: {trace:?}"
        );
    }
    for (r, acc) in accs.iter().enumerate() {
        assert_eq!(*acc, accs[0], "round {r} accuracy drifted across resharding");
    }
    // The adverse paths actually ran: the dead primary cost retries and
    // replica failovers.
    assert!(retries >= 1, "killing the primary must cost at least one retry");
    assert!(failovers >= 1, "replica failover was never exercised");
}

#[test]
fn server_crash_and_restart_mid_fleet_recovers_over_tcp() {
    let sc = scenario();
    let floor = local_only_floor(&sc, 2);
    let serve_config = ServeConfig {
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    };
    let mut server = PriorServer::bind("127.0.0.1:0", serve_config.clone()).unwrap();
    let addr = server.addr();
    server.state().register_payload(TASK_ID, sc.prior_payload.clone());

    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: 17,
    };
    let mut fleet: Vec<_> = (0..2)
        .map(|dev| EdgeRuntime::new(TcpConnector::new(addr), policy.clone(), runtime_config(dev)))
        .collect();

    let round = |fleet: &mut Vec<EdgeRuntime<TcpConnector>>| -> (f64, Vec<FitMode>) {
        let mut acc = 0.0;
        let mut modes = Vec::new();
        for (dev, rt) in fleet.iter_mut().enumerate() {
            let data = &sc.devices[dev];
            let fit = rt.fit_step(&data.train).unwrap();
            acc += metrics::accuracy(&fit.model, data.test.features(), data.test.labels())
                .unwrap();
            modes.push(fit.mode);
        }
        (acc / 2.0, modes)
    };

    // Two healthy rounds.
    let (healthy_acc, modes) = round(&mut fleet);
    assert!(modes.iter().all(|m| *m == FitMode::FreshPrior));
    round(&mut fleet);

    // Crash: the server goes away mid-fleet. Devices degrade but keep
    // serving fits at or above the local-only floor.
    server.shutdown();
    drop(server);
    for _ in 0..3 {
        let (acc, modes) = round(&mut fleet);
        assert!(modes.iter().all(|m| *m != FitMode::FreshPrior));
        assert!(acc >= floor - 1e-12);
    }

    // Restart on the same port (retry briefly in case the OS lags
    // releasing the listener address).
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
    restarted
        .state()
        .register_payload(TASK_ID, sc.prior_payload.clone());

    // The fleet recovers: breakers re-close, fresh fits return, and the
    // healed accuracy is bit-identical to the healthy rounds.
    let mut recovered = false;
    let mut healed_acc = 0.0;
    for _ in 0..4 {
        let (acc, modes) = round(&mut fleet);
        if modes.iter().all(|m| *m == FitMode::FreshPrior) {
            recovered = true;
            healed_acc = acc;
            break;
        }
    }
    assert!(recovered, "fleet never returned to fresh-prior fits");
    assert_eq!(healed_acc, healthy_acc, "healed accuracy must match pre-crash");
    for rt in &fleet {
        assert_eq!(rt.breaker().state(), BreakerState::Closed);
        assert!(rt.breaker().opens() >= 1 && rt.breaker().closes() >= 1);
    }
    restarted.shutdown();
}
