//! `report_ingest`: the cloud side of the loop alone.
//!
//! Seeded model reports — honest ones drawn from the standard task family's
//! clusters, plus a colluding cohort at E15's 30% fraction reporting one
//! identical boosted model — arrive as `ModelReport` frames through
//! `ServerState::respond_bytes`, with distinct honest device ids and
//! monotone colluder sequence numbers. Each fixed-size batch then goes
//! drain → `CloudLearner::absorb` (admission on) → `force_refresh` →
//! generation visible. One op is one batch's ingest, from the drain to the
//! new generation being servable; the throughput window is the whole batch,
//! frames included.

use std::sync::Arc;
use std::time::Instant;

use dre_data::{TaskFamily, TaskFamilyConfig};
use dre_edgesim::{poisoned_report, AdversaryKind};
use dre_learner::{AdmissionConfig, CloudLearner, LearnerConfig, SirConfig};
use dre_prob::seeded_rng;
use dre_serve::frame::{self, Message};
use dre_serve::ServerState;

use super::fleet_round::broad_prior;
use super::{secs, HeapWatch, Outcome, TimedSink, Workload};
use crate::rng::{mix, Digest};
use crate::{alloc, trace};

const TASK_ID: u64 = 9;
/// Seeded episodes replayed per pass.
pub const EPISODES: usize = 64;
/// Drained batches per episode.
pub const BATCHES: usize = 24;
/// Honest reports per batch.
pub const HONEST: usize = 7;
/// Colluding reports per batch: 3 of 10 is E15's 30% fraction.
pub const COLLUDERS: usize = 3;
/// Largest share of colluding reports a pass may admit.
const MAX_COLLUDER_ADMIT_SHARE: f64 = 0.25;
/// Device-id base of the colluding cohort (persistent identities).
const COLLUDER_BASE: u64 = 50_000;

/// The task family of the closed loop and E15: two well-separated clusters
/// of 4-feature logistic tasks.
pub fn family_config() -> TaskFamilyConfig {
    TaskFamilyConfig {
        dim: 4,
        num_clusters: 2,
        cluster_separation: 4.0,
        within_cluster_std: 0.2,
        label_noise: 0.02,
        steepness: 3.0,
    }
}

/// E15's gate: default admission with warmup matched to
/// `min_reports_for_base` and the calibrated 8-nat margin.
fn admission() -> AdmissionConfig {
    AdmissionConfig {
        warmup: 4,
        margin: 8.0,
        ..AdmissionConfig::default()
    }
}

struct Episode {
    seed: u64,
    /// Pre-encoded `ModelReport` frames, batch by batch, honest first.
    batches: Vec<Vec<Vec<u8>>>,
}

fn episode(seed: u64) -> Episode {
    let mut rng = seeded_rng(seed);
    let family =
        TaskFamily::generate(&family_config(), &mut rng).expect("the family config is valid");
    // The colluders all derive one poisoned model from the same honest
    // dataset, so they report one identical model every batch.
    let victim = family.sample_task(&mut rng).generate(30, &mut rng);
    let poison = poisoned_report(
        AdversaryKind::ColludingBoost {
            budget: 2.0,
            scale: -2.0,
        },
        &victim,
        1e-3,
    )
    .expect("a 30-sample task fits");
    let mut next_honest = 1u64;
    let batches = (0..BATCHES)
        .map(|b| {
            let honest = (0..HONEST).map(|_| {
                let params = family.sample_task(&mut rng).theta().to_vec();
                next_honest += 1;
                (next_honest, 1, params)
            });
            let colluders =
                (0..COLLUDERS as u64).map(|k| (COLLUDER_BASE + k, b as u64 + 1, poison.clone()));
            honest
                .collect::<Vec<_>>()
                .into_iter()
                .chain(colluders)
                .map(|(device_id, seq, params)| {
                    frame::encode(&Message::ModelReport {
                        task_id: TASK_ID,
                        device_id,
                        seq,
                        params,
                    })
                })
                .collect()
        })
        .collect();
    Episode { seed, batches }
}

/// The run's inputs: [`EPISODES`] seeded report streams.
pub struct ReportIngest {
    episodes: Vec<Episode>,
}

impl ReportIngest {
    /// Generates the inputs for `seed`.
    pub fn inputs(seed: u64) -> Self {
        Self::with_episodes(seed, EPISODES)
    }

    /// Generates `n` episodes for `seed` (the tests use small `n`).
    pub fn with_episodes(seed: u64, n: usize) -> Self {
        ReportIngest {
            episodes: (0..n as u64).map(|e| episode(mix(seed, e))).collect(),
        }
    }

    /// Fingerprint of every report frame.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for ep in &self.episodes {
            for f in ep.batches.iter().flatten() {
                d.bytes(f);
            }
        }
        d.finish()
    }
}

impl Workload for ReportIngest {
    fn pass(&self, out: &mut Outcome) -> u64 {
        let accepted = frame::encode(&Message::ReportAck { accepted: true });
        let mut fp = Digest::default();
        let mut batch_id = 0u64;
        let (mut colluder_reports, mut colluders_admitted) = (0u64, 0u64);
        for ep in &self.episodes {
            let heap = HeapWatch::start();
            let setup = Instant::now();
            // The server starts out serving the broad prior, as in the closed
            // loop, until the first batch publishes a learned one.
            let state = Arc::new(ServerState::new());
            state.register_prior(TASK_ID, &broad_prior(family_config().dim + 1));
            let mut learner = CloudLearner::try_new(LearnerConfig {
                sir: SirConfig {
                    seed: ep.seed,
                    ..SirConfig::default()
                },
                refresh_interval: usize::MAX,
                min_reports_for_base: 4,
                admission: Some(admission()),
            })
            .expect("E15's admission config is valid");
            let mut sink = TimedSink(Arc::clone(&state));
            out.setup_s.push(secs(setup));

            let (mut offered, mut absorbed, mut gated, mut quarantined) = (0, 0, 0, 0);
            for batch in &ep.batches {
                batch_id += 1;
                let generation = state.cache_generation();
                let allocs = alloc::calls();
                let started = Instant::now();
                let op = trace::span("op.batch", batch_id);
                for f in batch {
                    out.attempted += 1;
                    let reply = trace::timed("serve.report", batch_id, || state.respond_bytes(f));
                    if *reply != accepted[..] {
                        out.failed += 1;
                        out.problem(format!("batch {batch_id}: a report frame was not accepted"));
                    }
                }
                let ingest = Instant::now();
                let reports = trace::timed("serve.drain", batch_id, || state.take_reports());
                offered += reports.len();
                let tick = trace::timed("learner.absorb", batch_id, || {
                    learner.absorb(reports, &mut sink)
                });
                match tick {
                    Ok(tick) => {
                        state.note_admission_outcomes(tick.gated as u64, tick.quarantined as u64);
                        absorbed += tick.absorbed;
                        gated += tick.gated;
                        quarantined += tick.quarantined;
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problem(format!("batch {batch_id}: absorb failed: {e}"));
                    }
                }
                if let Err(e) = trace::timed("learner.refresh", batch_id, || {
                    learner.force_refresh(&mut sink)
                }) {
                    out.failed += 1;
                    out.problem(format!("batch {batch_id}: refresh failed: {e}"));
                }
                let visible = state.cache_generation();
                drop(op);
                let ingest_s = secs(ingest);
                let batch_s = secs(started);
                out.allocs += alloc::calls() - allocs;
                out.op_ms.push(ingest_s * 1e3);
                out.window(batch.len() as u64, batch_s);
                out.check(visible == generation + 1, || {
                    format!("batch {batch_id}: generation went {generation} -> {visible}")
                });
            }

            let payload = state.prior_entry(TASK_ID).map(|e| e.payload);
            match payload
                .as_deref()
                .map(|p| dro_edge::transfer::deserialize_prior(p))
            {
                Some(Ok(prior)) => {
                    out.check(prior.dim() == family_config().dim + 1, || {
                        format!("published prior has dimension {}", prior.dim())
                    });
                }
                Some(Err(e)) => out.problem(format!("published prior does not decode: {e}")),
                None => out.problem("no prior was published"),
            }
            if let Some(p) = &payload {
                fp.bytes(p);
            }
            let adm = learner.admission().expect("admission is on");
            let admitted: u64 = (0..COLLUDERS as u64)
                .map(|k| adm.reputation(COLLUDER_BASE + k).map_or(0, |r| r.admitted))
                .sum();
            colluder_reports += (COLLUDERS * ep.batches.len()) as u64;
            colluders_admitted += admitted;
            out.add_layer(
                "learner.colluders_admitted_episodes",
                f64::from(admitted > 0),
            );
            fp.u64(gated as u64);
            out.add_layer("learner.offered", offered as f64);
            out.add_layer("learner.absorbed", absorbed as f64);
            out.add_layer("learner.gated", gated as f64);
            out.add_layer("learner.quarantined", quarantined as f64);
            out.add_layer(
                "learner.resamples",
                learner.filter_resamples(TASK_ID) as f64,
            );
            out.add_layer(
                "learner.map_clusters",
                learner.filter_map_clusters(TASK_ID) as f64 / self.episodes.len() as f64,
            );
            let threshold = adm.gate_threshold(TASK_ID).unwrap_or(0.0);
            out.add_layer(
                "learner.gate_threshold",
                threshold / self.episodes.len() as f64,
            );
            heap.finish(out);
            super::add_server_layers(out, &state, self.episodes.len());
        }
        // Gating is statistical: in a family whose two clusters point in
        // roughly opposite directions, the sign-flipped colluding model lands
        // inside the other honest cluster and is admitted there. The check is
        // therefore on the pass as a whole; the episodes where the cohort got
        // through are reported as `learner.colluders_admitted_episodes`.
        let share = colluders_admitted as f64 / colluder_reports.max(1) as f64;
        out.check(share <= MAX_COLLUDER_ADMIT_SHARE, || {
            format!("{colluders_admitted} of {colluder_reports} colluding reports were admitted")
        });
        fp.finish()
    }
}
