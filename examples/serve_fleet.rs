//! A real cloud↔edge serving fleet on loopback TCP — including the part
//! where a shard *dies*. The cloud fits a DP prior and registers it on a
//! 3-shard, replication-2 `ShardedPriorPlane`; N devices run the
//! graceful-degradation `EdgeRuntime` through fetch→fit→report rounds,
//! each routing its keep-alive stream straight to the task's primary
//! shard through a `ShardConnector`. Mid-run the primary is killed — but
//! unlike the single-server fleet of earlier revisions, nobody walks the
//! degradation ladder: the dead stream is just another retryable
//! failure, the connector fails over to the replica inside the ordinary
//! retry loop, and every round stays a fresh-prior DRO fit. The primary
//! then restarts (the plane replays its payloads) and the per-shard and
//! failover counters at the end show exactly who served what. Byte
//! counts are *measured* frame sizes, the same numbers the `dre-edgesim`
//! simulator charges.
//!
//! The loop is **closed**: a `CloudLearner` drains every shard's report
//! inbox once per round (the consume-once `take_reports` path — no
//! clone-and-poll), folds the fleet's reported models into a streaming SIR
//! particle filter, and periodically publishes a refreshed DP prior back
//! through the plane. The refresh fans out to both replicas
//! byte-identically and every keep-alive device picks the new generation
//! up on its next fetch without reconnecting.
//!
//! ```sh
//! cargo run -p dre-integration --example serve_fleet --release [fleet_size]
//! ```

use std::time::Duration;

use dre_data::{TaskFamily, TaskFamilyConfig};
use dre_learner::{CloudLearner, LearnerConfig, SirConfig};
use dre_prob::seeded_rng;
use dre_serve::{
    frame, BreakerConfig, BreakerState, EdgeRuntime, EdgeRuntimeConfig, RetryPolicy, ServeConfig,
    ShardConnector, ShardPlaneConfig, ShardedPriorPlane,
};
use dro_edge::{CloudKnowledge, EdgeLearnerConfig, ModeShares};

const TASK_ID: u64 = 1;
const SHARDS: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fleet_size: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(8);

    // ── Cloud side: fit the DP prior and shard the serving plane ───────
    let mut rng = seeded_rng(7177);
    let family = TaskFamily::generate(
        &TaskFamilyConfig {
            dim: 5,
            num_clusters: 3,
            ..TaskFamilyConfig::default()
        },
        &mut rng,
    )?;
    let cloud = CloudKnowledge::from_family(&family, 24, 250, 1.0, &mut rng)?;
    let prior = cloud.prior().clone();
    let k = prior.num_components();
    let dim = family.config().dim;

    let mut plane = ShardedPriorPlane::bind(ShardPlaneConfig {
        shards: SHARDS,
        replication: 2,
        serve: ServeConfig {
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            ..ServeConfig::default()
        },
        ..ShardPlaneConfig::default()
    })?;
    // Fans out to both replicas; the frames on every replica are
    // byte-identical, so a failover client cannot tell who answered.
    plane.register_prior(TASK_ID, &prior);
    let owners = plane.shard_map().owners(TASK_ID);
    let (primary, replica) = (owners[0], owners[1]);

    let request_frame = frame::prior_request_frame_len();
    let response_frame = frame::prior_response_frame_len(k, dim + 1);
    let map_frame = frame::shard_map_response_frame_len(SHARDS);
    println!(
        "sharded prior plane: {SHARDS} shards, replication 2, epoch {}",
        plane.epoch()
    );
    for (i, addr) in plane.addrs().iter().enumerate() {
        let role = if i == primary {
            "  <- primary for task 1"
        } else if i == replica {
            "  <- replica for task 1"
        } else {
            ""
        };
        println!("  shard {i} on {addr}{role}");
    }
    println!(
        "measured frames: PriorRequest = {request_frame} B, PriorResponse = {response_frame} B, \
         ShardMapResponse = {map_frame} B\n"
    );

    // ── Edge side: a fleet of shard-routed degradation runtimes ────────
    let runtime_config = EdgeRuntimeConfig {
        task_id: TASK_ID,
        device_id: 0,
        learner: EdgeLearnerConfig {
            em_rounds: 5,
            solver_iters: 80,
            ..EdgeLearnerConfig::default()
        },
        erm_lambda: 1e-3,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_steps: 1,
            cooldown_jitter: 0,
            seed: 0,
        },
        stale_ttl: 2,
        report_models: true,
        // One persistent stream per device, parked on whichever owner the
        // connector last dialed; the shard kill below shows the replica
        // failover folding into the fetch's ordinary retry path.
        keep_alive: true,
    };
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        jitter_seed: 7,
    };
    let directory = plane.directory();
    let mut fleet: Vec<_> = (0..fleet_size)
        .map(|i| {
            let mut rng = seeded_rng(31_000 + i as u64);
            let task = family.sample_task(&mut rng);
            let train = task.generate(30, &mut rng);
            let connector = ShardConnector::new(std::sync::Arc::clone(&directory), TASK_ID);
            let mut config = runtime_config.clone();
            config.device_id = i as u64;
            let rt = EdgeRuntime::new(connector, policy.clone(), config);
            (train, rt)
        })
        .collect();

    // ── fetch→fit→report rounds, with a mid-run shard kill ─────────────
    // Rounds 0–1 healthy, primary killed before round 2, restarted (and
    // its payloads replayed) before round 5.
    let rounds = 7usize;
    // The streaming learner closing the loop: one drain per round, one
    // refreshed prior generation per crossed interval.
    let mut learner = CloudLearner::new(LearnerConfig {
        sir: SirConfig {
            seed: 4242,
            ..SirConfig::default()
        },
        refresh_interval: fleet_size.max(2),
        min_reports_for_base: 4,
        admission: None,
    });
    let mut refreshed_generations = 0usize;
    print!("{:<28}", "round");
    for dev in 0..fleet_size {
        print!("{:>12}", format!("dev{dev}"));
    }
    println!();
    for round in 0..rounds {
        if round == 2 {
            plane.kill_shard(primary);
            println!(
                "-- shard {primary} (primary) killed; replica {replica} keeps serving task 1 --"
            );
        }
        if round == 5 {
            // Same port: the map is unchanged, so no epoch bump is needed
            // and warm clients keep their routes.
            plane.restart_shard(primary)?;
            println!("-- shard {primary} restarted on its original port, payloads replayed --");
        }
        print!("{:<28}", format!("round {round} mode (breaker)"));
        for (train, rt) in fleet.iter_mut() {
            let fit = rt.fit_step(train)?;
            let b = rt.breaker().state();
            let state = match b {
                BreakerState::Closed => "C",
                BreakerState::Open => "O",
                BreakerState::HalfOpen => "H",
            };
            print!("{:>12}", format!("{}({state})", fit.mode.tag()));
        }
        println!();
        // Close the loop: drain every live shard's inbox and, whenever a
        // task crosses the refresh interval, fan the refreshed prior out
        // to all owner replicas through the plane.
        let tick = learner.absorb(plane.take_reports(), &mut plane)?;
        plane.note_admission_outcomes(tick.gated as u64, tick.quarantined as u64);
        if !tick.refreshed_tasks.is_empty() {
            refreshed_generations += tick.refreshed_tasks.len();
            println!(
                "-- learner absorbed {} reports and refreshed the task-1 prior \
                 (generation {}) --",
                tick.absorbed, refreshed_generations
            );
        }
    }

    // ── What the fleet did, per device ─────────────────────────────────
    println!(
        "\n{:<8} {:>6} {:>6} {:>6} {:>7} {:>6} {:>7} {:>9} {:>9}",
        "device", "fresh", "stale", "local", "opens", "conns", "reused", "bytes-in", "bytes-out"
    );
    for (dev, (_, rt)) in fleet.iter().enumerate() {
        let mut shares = ModeShares::default();
        for &mode in rt.mode_trace() {
            shares.push(mode);
        }
        let m = rt.client().metrics();
        println!(
            "{dev:<8} {:>6} {:>6} {:>6} {:>7} {:>6} {:>7} {:>9} {:>9}",
            shares.fresh,
            shares.stale,
            shares.local,
            rt.breaker().opens(),
            m.connections,
            m.reused_connections,
            m.bytes_in,
            m.bytes_out,
        );
        // The replica absorbed the outage: no stale fits, no local
        // fallbacks, no breaker trips — every round was fresh DRO.
        assert_eq!(shares.fresh, rounds as u64);
        assert_eq!(shares.stale + shares.local, 0);
        assert_eq!(rt.breaker().opens(), 0);
        assert_eq!(rt.breaker().state(), BreakerState::Closed);
        assert!(
            m.reused_connections > 0,
            "keep-alive devices must reuse their stream across healthy rounds"
        );
    }

    // ── Who served what: per-shard and failover counters ───────────────
    println!(
        "\n{:<8} {:>9} {:>9} {:>11} {:>10}",
        "shard", "requests", "ok", "cache-hits", "misroutes"
    );
    for i in 0..SHARDS {
        let m = plane.shard_metrics(i).expect("shard is live");
        let role = if i == primary {
            "  (primary, killed+restarted)"
        } else if i == replica {
            "  (replica, absorbed failover)"
        } else {
            ""
        };
        println!(
            "{i:<8} {:>9} {:>9} {:>11} {:>10}{role}",
            m.requests, m.responses_ok, m.prior_cache_hits, m.misroutes
        );
    }
    println!(
        "(a restarted shard starts fresh counters; rounds 0-1 were served by shard \
         {primary}'s previous incarnation)"
    );
    let routing = directory.metrics().snapshot();
    let fanouts = plane.metrics().replica_fanouts;
    println!(
        "\nrouting: {} replica failovers, {} map refreshes, {} replica fan-out writes",
        routing.shard_failovers, routing.map_refreshes, fanouts
    );
    println!(
        "learner: {} reports absorbed into the SIR filter, {} refreshed prior \
         generations published ({} MAP clusters)",
        learner.filter_observations(TASK_ID),
        learner.refreshes(),
        learner.filter_map_clusters(TASK_ID)
    );
    assert!(
        learner.refreshes() >= 1,
        "the fleet reports every round; the learner must have refreshed"
    );
    assert!(
        routing.shard_failovers >= fleet_size as u64,
        "every device's first fetch after the kill must fail over once"
    );

    println!(
        "\nNo device ever left fresh-prior DRO: when the primary died the\n\
         ShardConnector treated the dead stream as a retryable failure and\n\
         re-dialed the replica — same frames, byte-identical prior, zero\n\
         rungs of the degradation ladder spent. `conns` counts dials and\n\
         `reused` the exchanges that rode an already-open stream. Every\n\
         byte above was measured on the wire — compare\n\
         `prior_transfer_bytes({k}, {dim})` = {} in the simulator.",
        dre_edgesim::prior_transfer_bytes(k, dim),
    );
    plane.shutdown();
    Ok(())
}
