//! `plane_fetch`: the serving plane over real loopback TCP.
//!
//! One `PriorServer` with a single event-loop worker (so the worker plus
//! this load-generator thread fit a two-core host) serves a seeded set of
//! task priors. One generator thread drives two keep-alive `PriorClient`s in
//! a closed loop: mostly prior fetches over the task set, with a fixed share
//! of `ModelReport`s. At a fixed cadence the generator drains the report
//! inbox and re-registers one task's prior, which rebuilds its cached frame,
//! so reads run beside writes. The latency samples are the prior fetches;
//! the throughput window is a fixed number of requests of either kind,
//! publishes included.
//!
//! The server closes a keep-alive connection after
//! `max_requests_per_conn` requests; the clients retry, so those reconnects
//! count as retries, not failures.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dre_bayes::MixturePrior;
use dre_linalg::Matrix;
use dre_serve::{PriorClient, PriorServer, RetryPolicy, ServeConfig, TcpConnector};

use super::{secs, HeapWatch, Outcome, Workload};
use crate::rng::{mix, Digest, SplitMix};
use crate::{alloc, stats, trace};

/// Seeded episodes (fresh server each) replayed per pass.
pub const EPISODES: usize = 3;
/// Requests per episode.
pub const REQUESTS: usize = 12_288;
/// Requests per throughput window.
pub const WINDOW: usize = 512;
/// Requests between publishes (drain + one re-registration).
pub const PUBLISH_EVERY: usize = 256;
/// One request in this many is a `ModelReport`.
pub const REPORT_ONE_IN: usize = 20;
/// Tasks with a registered prior.
pub const TASKS: usize = 16;
/// Packed parameter dimension of every prior.
const DIM: usize = 9;
/// Server event-loop workers.
pub const WORKERS: usize = 1;

/// A seeded prior: 1–4 components with spread-out means and a shared
/// diagonal covariance.
fn prior(rng: &mut SplitMix) -> MixturePrior {
    let k = 1 + rng.below(4);
    let unit = |rng: &mut SplitMix| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let components = (0..k)
        .map(|_| {
            let mean: Vec<f64> = (0..DIM).map(|_| 8.0 * unit(rng) - 4.0).collect();
            let var = 0.05 + unit(rng);
            (1.0 / k as f64, mean, Matrix::identity(DIM).scaled(var))
        })
        .collect();
    MixturePrior::new(components).expect("positive weights and diagonal covariances are valid")
}

/// What the generator does at one request slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Request {
    Fetch { task: u64 },
    Report { params: usize },
}

struct Episode {
    /// Two priors per task; publishes alternate between them.
    priors: Vec<[MixturePrior; 2]>,
    /// The request schedule.
    requests: Vec<Request>,
    /// Packed models the reports carry.
    report_params: Vec<Vec<f64>>,
    /// Which task each publish re-registers.
    publishes: Vec<u64>,
}

fn episode(seed: u64) -> Episode {
    let mut rng = SplitMix::new(seed);
    let priors = (0..TASKS)
        .map(|_| [prior(&mut rng), prior(&mut rng)])
        .collect();
    let report_params: Vec<Vec<f64>> = (0..64)
        .map(|_| {
            (0..DIM)
                .map(|_| (rng.below(2001) as f64 - 1000.0) / 250.0)
                .collect()
        })
        .collect();
    let requests = (0..REQUESTS)
        .map(|_| {
            if rng.below(REPORT_ONE_IN) == 0 {
                Request::Report {
                    params: rng.below(report_params.len()),
                }
            } else {
                Request::Fetch {
                    task: rng.below(TASKS) as u64,
                }
            }
        })
        .collect();
    let publishes = (0..REQUESTS / PUBLISH_EVERY)
        .map(|_| rng.below(TASKS) as u64)
        .collect();
    Episode {
        priors,
        requests,
        report_params,
        publishes,
    }
}

/// The run's inputs: [`EPISODES`] seeded request schedules.
pub struct PlaneFetch {
    episodes: Vec<Episode>,
}

impl PlaneFetch {
    /// Generates the inputs for `seed`.
    pub fn inputs(seed: u64) -> Self {
        Self::with_episodes(seed, EPISODES)
    }

    /// Generates `n` episodes for `seed` (the tests use small `n`).
    pub fn with_episodes(seed: u64, n: usize) -> Self {
        PlaneFetch {
            episodes: (0..n as u64).map(|e| episode(mix(seed, e))).collect(),
        }
    }

    /// Fingerprint of every prior and the request schedule.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for ep in &self.episodes {
            for pair in &ep.priors {
                for p in pair {
                    d.bytes(&dro_edge::transfer::serialize_prior(p));
                }
            }
            for r in &ep.requests {
                match *r {
                    Request::Fetch { task } => d.u64(task),
                    Request::Report { params } => d.u64(1 << 32 | params as u64),
                }
            }
            for p in &ep.report_params {
                d.f64s(p);
            }
            for &t in &ep.publishes {
                d.u64(t);
            }
        }
        d.finish()
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(2),
        jitter_seed: seed,
    }
}

impl Workload for PlaneFetch {
    fn pass(&self, out: &mut Outcome) -> u64 {
        out.server_workers = WORKERS;
        let mut fp = Digest::default();
        let first_sample = out.op_ms.len();
        let mut request_id = 0u64;
        for (e, ep) in self.episodes.iter().enumerate() {
            let heap = HeapWatch::start();
            let setup = Instant::now();
            let mut server = match PriorServer::bind("127.0.0.1:0", config()) {
                Ok(s) => s,
                Err(err) => {
                    out.problem(format!("episode {e}: bind failed: {err}"));
                    continue;
                }
            };
            let state = Arc::clone(server.state());
            for (t, pair) in ep.priors.iter().enumerate() {
                state.register_prior(t as u64, &pair[0]);
            }
            let addr = server.addr();
            let mut clients: Vec<_> = (0..2u64)
                .map(|c| PriorClient::new(TcpConnector::new(addr), policy(c)).keep_alive(true))
                .collect();
            out.setup_s.push(secs(setup));

            let mut expected: BTreeMap<u64, Arc<Vec<u8>>> = (0..TASKS as u64)
                .map(|t| (t, state.prior_entry(t).expect("registered").payload))
                .collect();
            let mut next_prior = [1usize; TASKS];
            let mut payload = Vec::new();
            let mut next_device = 1u64;
            let mut reports_sent = 0usize;
            let mut window_start = Instant::now();
            let mut window_allocs = alloc::calls();
            for (i, req) in ep.requests.iter().enumerate() {
                if i > 0 && i % PUBLISH_EVERY == 0 {
                    let task = ep.publishes[i / PUBLISH_EVERY - 1];
                    let _op = trace::span("op.publish", task);
                    let drained = trace::timed("serve.drain", task, || state.take_reports());
                    out.check(drained.len() == reports_sent, || {
                        format!(
                            "episode {e}: drained {} reports, sent {reports_sent}",
                            drained.len()
                        )
                    });
                    reports_sent = 0;
                    let which = next_prior[task as usize];
                    next_prior[task as usize] ^= 1;
                    trace::timed("serve.register", task, || {
                        state.register_prior(task, &ep.priors[task as usize][which]);
                    });
                    expected.insert(task, state.prior_entry(task).expect("registered").payload);
                }
                request_id += 1;
                let client = &mut clients[i % 2];
                out.attempted += 1;
                match *req {
                    Request::Fetch { task } => {
                        let started = Instant::now();
                        let _op = trace::span("op.request", request_id);
                        let got = trace::timed("client.fetch", request_id, || {
                            client.fetch_prior_payload_into(task, &mut payload)
                        });
                        out.op_ms.push(secs(started) * 1e3);
                        match got {
                            Ok(()) => out.check(payload[..] == expected[&task][..], || {
                                format!("episode {e}: request {i}: task {task} payload differs")
                            }),
                            Err(err) => {
                                out.failed += 1;
                                out.problem(format!("episode {e}: fetch {i} failed: {err}"));
                            }
                        }
                    }
                    Request::Report { params } => {
                        next_device += 1;
                        let _op = trace::span("op.request", request_id);
                        let got = trace::timed("client.report", request_id, || {
                            client.report_model(0, next_device, 1, ep.report_params[params].clone())
                        });
                        match got {
                            Ok(true) => reports_sent += 1,
                            Ok(false) => out.problem(format!("episode {e}: report {i} refused")),
                            Err(err) => {
                                out.failed += 1;
                                out.problem(format!("episode {e}: report {i} failed: {err}"));
                            }
                        }
                    }
                }
                if (i + 1) % WINDOW == 0 {
                    out.allocs += alloc::calls() - window_allocs;
                    out.window(WINDOW as u64, secs(window_start));
                    window_start = Instant::now();
                    window_allocs = alloc::calls();
                }
            }

            let m = state.metrics();
            let health = state.health_status();
            out.check(health.worker_panics == 0, || {
                format!("episode {e}: {} worker panics", health.worker_panics)
            });
            for c in &clients {
                let cm = c.metrics();
                out.add_layer("serve.reconnects", cm.connections.saturating_sub(1) as f64);
                out.add_layer("serve.retries", cm.retries as f64);
            }
            out.add_layer("serve.wouldblock_reads", m.wouldblock_reads as f64);
            out.add_layer("serve.batched_writes", m.batched_writes as f64);
            super::add_server_layers(out, &state, self.episodes.len());
            for p in expected.values() {
                fp.bytes(p);
            }
            fp.u64(m.prior_cache_hits);
            heap.finish(out);
            server.shutdown();
        }
        let fetch_ms = &out.op_ms[first_sample..];
        let (p50, p99) = (stats::median(fetch_ms), stats::quantile(fetch_ms, 0.99));
        out.add_layer("serve.fetch_us_p99", p99 * 1e3);
        out.add_layer("serve.fetch_us_p50", p50 * 1e3);
        fp.finish()
    }
}
