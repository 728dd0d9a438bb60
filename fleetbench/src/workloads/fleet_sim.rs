//! `fleet_sim`: the `dre-edgesim` event executor alone.
//!
//! Each op runs two seeded prior-transfer fleets of the
//! `edgesim_events_per_sec` shape: one in the legacy direct-delivery mode
//! (no topology) and one behind a one-big-switch fabric with fleet-sized
//! port queues and light seeded Bernoulli loss, so the go-back-N transport
//! retransmits. The two modes use the executor differently; both must keep
//! their cost visible. An episode builds both scenarios and runs them
//! [`ITERATIONS`] times; every rerun must reproduce the first `SimReport`
//! bit for bit.

use std::time::Instant;

use dre_edgesim::{
    ComputeModel, DeviceSpec, Link, LossModel, Scenario, SimDuration, SimReport, Strategy,
    SwitchConfig, Topology,
};

use super::{secs, HeapWatch, Outcome, Workload};
use crate::rng::{mix, Digest, SplitMix};
use crate::{alloc, trace};

/// Seeded episodes replayed per pass.
pub const EPISODES: usize = 8;
/// Runs of both fleets per episode.
pub const ITERATIONS: usize = 3;
/// Devices per fleet.
pub const DEVICES: usize = 6_000;
/// Per-crossing frame loss on device access links in the fabric fleet.
const LOSS: f64 = 0.002;

struct Episode {
    seed: u64,
    devices: Vec<DeviceSpec>,
}

fn episode(seed: u64) -> Episode {
    let mut rng = SplitMix::new(seed);
    let devices = (0..DEVICES)
        .map(|_| DeviceSpec {
            link: Link::new_ms(2.0 + rng.below(19) as f64, 1e6 * (1 + rng.below(10)) as f64),
            strategy: Strategy::PriorTransfer {
                samples: 50 + rng.below(151),
                dim: 8,
                iterations: 50,
                em_rounds: 4,
                prior_components: 1 + rng.below(4),
            },
        })
        .collect();
    Episode { seed, devices }
}

/// The run's inputs: [`EPISODES`] seeded device populations.
pub struct FleetSim {
    episodes: Vec<Episode>,
}

impl FleetSim {
    /// Generates the inputs for `seed`.
    pub fn inputs(seed: u64) -> Self {
        Self::with_episodes(seed, EPISODES)
    }

    /// Generates `n` episodes for `seed` (the tests use small `n`).
    pub fn with_episodes(seed: u64, n: usize) -> Self {
        FleetSim {
            episodes: (0..n as u64).map(|e| episode(mix(seed, e))).collect(),
        }
    }

    /// Fingerprint of every device spec.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for ep in &self.episodes {
            d.u64(ep.seed);
            for dev in &ep.devices {
                d.bytes(format!("{dev:?}").as_bytes());
            }
        }
        d.finish()
    }
}

fn build(ep: &Episode, topology: Option<Topology>) -> Scenario {
    let mut sc = Scenario::new(ComputeModel::default());
    if let Some(topo) = topology {
        sc = sc.with_topology(topo);
    }
    for dev in &ep.devices {
        sc.add_device(*dev);
    }
    sc
}

fn fabric(seed: u64) -> Topology {
    Topology::one_big_switch(Link::new_ms(1.0, 1e12))
        .with_switch(SwitchConfig {
            queue_capacity: 2 * DEVICES as u32 + 16,
            rto: SimDuration::from_millis_f64(500.0),
            ..SwitchConfig::default()
        })
        .with_device_loss(LossModel::Bernoulli { loss: LOSS, seed })
}

fn fold(fp: &mut Digest, r: &SimReport) {
    fp.u64(r.events_executed);
    fp.u64(r.total_bytes);
    fp.u64(r.frames_forwarded);
    fp.u64(r.messages_dropped);
    fp.u64(r.bytes_retransmitted);
    fp.bytes(format!("{:?}", r.makespan).as_bytes());
}

impl Workload for FleetSim {
    fn pass(&self, out: &mut Outcome) -> u64 {
        let mut fp = Digest::default();
        let mut iteration = 0u64;
        let (mut legacy_rates, mut fabric_rates) = (Vec::new(), Vec::new());
        for ep in &self.episodes {
            let heap = HeapWatch::start();
            let setup = Instant::now();
            let legacy = build(ep, None);
            let fabric = build(ep, Some(fabric(ep.seed)));
            out.setup_s.push(secs(setup));

            let mut first: Option<(SimReport, SimReport)> = None;
            for _ in 0..ITERATIONS {
                iteration += 1;
                out.attempted += 2;
                let allocs = alloc::calls();
                let started = Instant::now();
                let op = trace::span("op.iteration", iteration);
                let t = Instant::now();
                let l = trace::timed("sim.legacy", iteration, || legacy.run());
                let legacy_s = secs(t);
                let t = Instant::now();
                let f = trace::timed("sim.fabric", iteration, || fabric.run());
                let fabric_s = secs(t);
                drop(op);
                let iter_s = secs(started);
                out.allocs += alloc::calls() - allocs;
                let events = l.events_executed + f.events_executed;
                out.op_ms.push(iter_s * 1e3);
                out.window(events, iter_s);
                legacy_rates.push(l.events_executed as f64 / legacy_s);
                fabric_rates.push(f.events_executed as f64 / fabric_s);

                out.check(
                    l.messages_dropped == 0
                        && l.bytes_retransmitted == 0
                        && l.frames_forwarded == 0,
                    || {
                        format!(
                            "iteration {iteration}: legacy mode dropped or retransmitted frames"
                        )
                    },
                );
                match &first {
                    None => {
                        fold(&mut fp, &l);
                        fold(&mut fp, &f);
                        out.add_layer(
                            "sim.events_executed",
                            events as f64 / self.episodes.len() as f64,
                        );
                        out.add_layer(
                            "sim.frames_forwarded",
                            f.frames_forwarded as f64 / self.episodes.len() as f64,
                        );
                        out.add_layer(
                            "sim.messages_dropped",
                            f.messages_dropped as f64 / self.episodes.len() as f64,
                        );
                        out.add_layer(
                            "sim.bytes_retransmitted",
                            f.bytes_retransmitted as f64 / self.episodes.len() as f64,
                        );
                        first = Some((l, f));
                    }
                    Some((l0, f0)) => {
                        out.check(&l == l0 && &f == f0, || {
                            format!("iteration {iteration}: rerun did not reproduce the SimReport")
                        });
                    }
                }
            }
            heap.finish(out);
        }
        out.add_layer(
            "sim.legacy_events_per_s",
            crate::stats::median(&legacy_rates),
        );
        out.add_layer(
            "sim.fabric_events_per_s",
            crate::stats::median(&fabric_rates),
        );
        fp.finish()
    }
}
