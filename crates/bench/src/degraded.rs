//! Shared harness for the degraded-mode experiments: a prior-covered
//! device fleet running the real [`EdgeRuntime`] over seeded faulty
//! in-memory links.
//!
//! E13 and the `edge_runtime_degraded_rps` bench kernel build on this so
//! the experiment table and the CI tolerance gate measure the *same*
//! scenario: the table sweeps fault intensity and reports the degradation
//! ladder, the kernel times it and fails CI if any accuracy reading sinks
//! below the device's own local-only ERM floor. The chaos suite
//! (`tests/chaos.rs`) runs its fleets with the same retry policy and fault
//! mix ([`degraded_policy`], [`degraded_faults`]).

use std::sync::Arc;
use std::time::Duration;

use dre_data::TaskFamily;
use dre_models::metrics;
use dre_serve::{
    BreakerConfig, EdgeRuntime, EdgeRuntimeConfig, FaultConfig, FaultInjector, FaultyConnector,
    RetryPolicy, ServerState,
};
use dro_edge::{CloudKnowledge, FitMode};

use crate::{covered_devices, fleet_learner_config, CoveredDevice, FLOOR_ERM_LAMBDA};

/// Task id the degraded-fleet scenario registers its prior under.
pub const DEGRADED_TASK_ID: u64 = 13;

/// The fixed scenario every degraded-mode run shares: a fitted cloud prior
/// registered on an in-memory server plus per-device datasets.
pub struct DegradedScenario {
    /// Server state holding the registered prior payload.
    pub state: Arc<ServerState>,
    /// The device fleet.
    pub devices: Vec<CoveredDevice>,
}

impl DegradedScenario {
    /// Mean local-only floor accuracy over the fleet.
    pub fn mean_floor(&self) -> f64 {
        self.devices.iter().map(|d| d.floor_acc).sum::<f64>() / self.devices.len() as f64
    }
}

/// Deterministically builds a prior-covered fleet (see
/// [`covered_devices`]) of `num_devices` devices on the workspace-standard
/// task family.
///
/// # Panics
///
/// Panics if the pipeline fails or a covered fleet cannot be drawn.
pub fn degraded_scenario(seed: u64, num_devices: usize) -> DegradedScenario {
    let mut rng = dre_prob::seeded_rng(seed);
    let family = TaskFamily::generate(&crate::standard_family_config(), &mut rng)
        .expect("standard config is valid");
    let cloud = CloudKnowledge::from_family(&family, 24, 300, 1.0, &mut rng)
        .expect("cloud pipeline failed");
    let state = Arc::new(ServerState::new());
    state.register_payload(
        DEGRADED_TASK_ID,
        dro_edge::transfer::serialize_prior(cloud.prior()),
    );
    let devices = covered_devices(&family, cloud.prior(), num_devices, &mut rng);
    DegradedScenario { state, devices }
}

/// Runtime configuration for the degraded fleet: a fast-tripping breaker
/// (threshold 2, 2-step cooldown, so open-breaker short-circuits are
/// visible in per-round traces) and a 2-step stale-prior TTL.
pub fn degraded_runtime_config(device_id: u64) -> EdgeRuntimeConfig {
    EdgeRuntimeConfig {
        task_id: DEGRADED_TASK_ID,
        device_id,
        learner: fleet_learner_config(),
        erm_lambda: FLOOR_ERM_LAMBDA,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_steps: 2,
            cooldown_jitter: 0,
            seed: 0,
        },
        stale_ttl: 2,
        report_models: true,
        keep_alive: false,
    }
}

/// Tight retry policy so degraded rounds don't stall on backoff sleeps.
pub fn degraded_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(100),
        jitter_seed: 5,
    }
}

/// Mixed drop/corrupt/delay faults at overall intensity `rate ∈ [0, 1]`.
pub fn degraded_faults(rate: f64) -> FaultConfig {
    FaultConfig {
        drop_prob: rate,
        corrupt_prob: rate * 0.5,
        delay_prob: rate * 0.25,
        delay: Duration::from_micros(50),
        ..FaultConfig::default()
    }
}

/// Spawns the fleet: one [`EdgeRuntime`] per device over an in-memory
/// faulty link seeded from `seed` and the device index.
pub fn spawn_degraded_fleet(
    sc: &DegradedScenario,
    rate: f64,
    seed: u64,
) -> Vec<EdgeRuntime<FaultyConnector<Arc<ServerState>>>> {
    (0..sc.devices.len())
        .map(|dev| {
            let connector = FaultyConnector::new(
                Arc::clone(&sc.state),
                FaultInjector::new(seed.wrapping_mul(1_000) + dev as u64, degraded_faults(rate)),
            );
            EdgeRuntime::new(
                connector,
                degraded_policy(),
                degraded_runtime_config(dev as u64),
            )
        })
        .collect()
}

/// One accuracy reading: a device's held-out accuracy for one round, with
/// the ladder rung that produced it and the device's own floor.
pub struct DegradedReading {
    /// Device index.
    pub device: usize,
    /// Held-out accuracy of this round's fit.
    pub accuracy: f64,
    /// The degradation rung that served the fit.
    pub mode: FitMode,
    /// The device's local-only floor accuracy.
    pub floor_acc: f64,
}

/// Runs `rounds` fleet rounds, advancing each device's logical fault clock
/// once per round, and returns every per-device per-round reading.
pub fn run_degraded_rounds(
    sc: &DegradedScenario,
    fleet: &mut [EdgeRuntime<FaultyConnector<Arc<ServerState>>>],
    rounds: usize,
) -> Vec<DegradedReading> {
    let mut readings = Vec::with_capacity(rounds * fleet.len());
    for _ in 0..rounds {
        for (dev, rt) in fleet.iter_mut().enumerate() {
            let data = &sc.devices[dev];
            let fit = rt.fit_step(&data.train).expect("fit never hard-fails");
            let accuracy = metrics::accuracy(&fit.model, data.test.features(), data.test.labels())
                .expect("eval");
            readings.push(DegradedReading {
                device: dev,
                accuracy,
                mode: fit.mode,
                floor_acc: data.floor_acc,
            });
            rt.connector().advance_step();
        }
    }
    readings
}

/// Counts readings whose accuracy fell below the device's own local-only
/// floor — the ladder's invariant says this is always zero.
pub fn readings_below_floor(readings: &[DegradedReading]) -> usize {
    readings
        .iter()
        .filter(|r| r.accuracy < r.floor_acc - 1e-12)
        .count()
}
