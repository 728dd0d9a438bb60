//! Before/after wall-time comparisons for the workspace's hot kernels: the
//! cached against the exact-recompute Gibbs sweep, rank-1 Cholesky updates
//! against refactorization, and the serving plane, edge runtime, learner
//! and event executor at their measured rates.
//!
//! Writes `BENCH_parallel.json` at the repository root: per kernel the two
//! wall times (each the median and p10/p90 of [`TRIALS`] runs), the speedup
//! of the medians, and an output diff checked against a per-kernel
//! tolerance (0 for the serving and executor kernels, which must not
//! corrupt a byte or move an event; the documented cache tolerance for the
//! incremental-Gibbs kernel). The process exits nonzero when any kernel
//! exceeds its tolerance, so CI can run it as a correctness smoke test.
//!
//! Every kernel is one row of [`KERNELS`]: a function that runs it at a
//! [`Size`] and returns its measured fields, plus its tolerance and perf
//! [`Gate`]. `main` walks the table once and owns the printed line, the
//! JSON row, the tolerance check and the gates.
//!
//! Flags:
//!
//! * `--smoke` — shrink every problem size so the run completes in seconds
//!   and skip rewriting `BENCH_parallel.json`; used by CI.
//!
//! On single-core machines the serving plane's scaling rows hover around
//! 1× (a warning is printed); the other rows measure algorithmic wins that
//! are visible without threads.

use std::net::SocketAddr;
use std::time::Instant;

use dre_bayes::{DpNiwGibbs, GibbsConfig, MixturePrior};
use dre_bench::degraded::{
    degraded_scenario, readings_below_floor, run_degraded_rounds, spawn_degraded_fleet,
};
use dre_bench::json::JsonValue;
use dre_edgesim::{
    ComputeModel, DeviceSpec, Link, Scenario, SimDuration, Strategy, SwitchConfig, Topology,
};
use dre_learner::{AdmissionConfig, AdmissionState, SirConfig, SirDpFilter};
use dre_linalg::{Cholesky, Matrix};
use dre_prob::{seeded_rng, MvNormal, NormalInverseWishart};
use dre_serve::{
    PriorClient, PriorServer, RetryPolicy, ServeConfig, ServerHandle, ShardPlaneConfig,
    ShardedPriorPlane, TcpConnector,
};
use rand::Rng;

/// Problem scale: `--smoke` shrinks every kernel so CI finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Size {
    Smoke,
    Full,
}

impl Size {
    fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Size::Smoke => smoke,
            Size::Full => full,
        }
    }
}

/// A perf gate on one numeric field of a kernel's row; every rate and ratio
/// in a row is computed from median timings. Gates apply only to
/// full runs on hosts with at least 4 hardware threads: a smaller host can
/// only timeshare the workers, so its rows are stamped `"degraded": true`
/// instead.
#[derive(Debug, Clone, Copy)]
enum Gate {
    /// The tolerance check alone.
    None,
    /// The named field must reach the bound.
    AtLeast(&'static str, f64),
    /// The named field must stay under the bound.
    Below(&'static str, f64),
}

/// One row of the kernel table.
struct Kernel {
    run: fn(Size) -> Row,
    /// Largest acceptable `max_abs_diff` (NaN always fails).
    tolerance: f64,
    /// Whether this kernel's headline number is a thread-scaling claim.
    /// Outside `--smoke`, running any such kernel on a single-thread host
    /// fails the run: its report would record meaningless ~1× speedups as
    /// if they were measurements.
    expects_parallelism: bool,
    gate: Gate,
}

/// Timed trials per measured arm; rows record their median and p10/p90.
const TRIALS: usize = 5;

const THREADS: bool = true;
const ALGO: bool = false;

const fn kernel(run: fn(Size) -> Row, tolerance: f64, threads: bool, gate: Gate) -> Kernel {
    Kernel {
        run,
        tolerance,
        expects_parallelism: threads,
        gate,
    }
}

/// The benchmarked kernels, in report order. `THREADS` marks the
/// thread-scaling claims, `ALGO` the single-threaded comparisons.
#[rustfmt::skip]
const KERNELS: &[Kernel] = &[
    kernel(gibbs_sweep_cached,               1e-6, ALGO,    Gate::None),
    kernel(chol_rank1_update,                1e-8, ALGO,    Gate::None),
    kernel(serve_loopback_rps,               0.0,  THREADS, Gate::None),
    kernel(serve_loopback_rps_keepalive,     0.0,  ALGO,    Gate::None),
    kernel(serve_loopback_rps_multicore,     0.0,  THREADS, Gate::AtLeast("speedup", 3.0)),
    kernel(serve_sharded_rps,                0.0,  THREADS, Gate::AtLeast("speedup", 2.0)),
    kernel(edge_runtime_degraded_rps,        0.0,  ALGO,    Gate::None),
    kernel(learner_refresh_reports_per_sec,  1e-6, ALGO,    Gate::None),
    kernel(report_admission_reports_per_sec, 0.0,  ALGO,    Gate::Below("overhead_fraction", 0.10)),
    kernel(edgesim_events_per_sec,           0.0,  ALGO,    Gate::AtLeast("events_per_sec", 1e6)),
];

type Fields = Vec<(&'static str, JsonValue)>;

/// What one kernel run hands back to the table loop.
struct Row {
    /// The JSON row name; it carries the problem size
    /// (`chol_rank1_update_d64`).
    name: String,
    /// Output disagreement checked against the kernel's tolerance.
    diff: f64,
    /// Timing and provenance fields, in JSON order after `name`; the loop
    /// appends `max_abs_diff` and `tolerance`.
    fields: Fields,
}

impl Row {
    fn new(name: String, diff: f64, fields: Fields) -> Row {
        Row { name, diff, fields }
    }

    /// The numeric field `key`, or NaN.
    fn number(&self, key: &str) -> f64 {
        match self.fields.iter().find(|(k, _)| *k == key) {
            Some((_, JsonValue::Number(v))) => *v,
            _ => f64::NAN,
        }
    }
}

/// Prints `name: key value, …` and returns the row as a JSON object.
fn report_line(name: &str, fields: Fields) -> JsonValue {
    let shown: Vec<String> = fields
        .iter()
        .map(|(k, v)| match v {
            JsonValue::Number(x) if k.ends_with("diff") || *k == "tolerance" => {
                format!("{k} {x:e}")
            }
            JsonValue::Number(x) if x.fract() == 0.0 => format!("{k} {x}"),
            JsonValue::Number(x) => format!("{k} {x:.3}"),
            JsonValue::Bool(b) => format!("{k} {b}"),
            // A `Timing`: "median 1.234 p10 1.100 p90 1.500".
            JsonValue::Object(parts) => {
                let parts: Vec<String> = parts
                    .iter()
                    .map(|(pk, v)| match v {
                        JsonValue::Number(x) => format!("{pk} {x:.3}"),
                        other => format!("{pk} {other:?}"),
                    })
                    .collect();
                format!("{k} {}", parts.join(" "))
            }
            other => format!("{k} {other:?}"),
        })
        .collect();
    println!("{name}: {}", shown.join(", "));
    JsonValue::object([("name", JsonValue::from(name))].into_iter().chain(fields))
}

fn main() {
    let size = if std::env::args().any(|a| a == "--smoke") {
        Size::Smoke
    } else {
        Size::Full
    };
    let threads = hw_threads();
    if threads <= 1 {
        eprintln!(
            "warning: only 1 hardware thread available; the serving plane's scaling \
             speedups will hover around 1x on this host (the other rows measure \
             algorithmic wins and remain valid)"
        );
    }
    let gated = size == Size::Full && !degraded_host();
    let mut rows = Vec::new();
    let mut violations = 0usize;
    let mut one_thread_offenders = Vec::new();
    for kernel in KERNELS {
        let row = (kernel.run)(size);
        let (name, diff, tolerance) = (row.name.clone(), row.diff, kernel.tolerance);
        // NaN must fail the gate too, so test "not within tolerance".
        if diff.is_nan() || diff > tolerance {
            eprintln!("FAIL {name}: max_abs_diff {diff:e} exceeds tolerance {tolerance:e}");
            violations += 1;
        }
        let miss = match kernel.gate {
            Gate::AtLeast(key, min) if gated && row.number(key) < min => Some((key, "below", min)),
            Gate::Below(key, max) if gated && row.number(key) >= max => {
                Some((key, "not below", max))
            }
            _ => None,
        };
        if let Some((key, side, bound)) = miss {
            let value = row.number(key);
            eprintln!(
                "FAIL {name}: {key} {value:.3} is {side} the {bound} gate on a {threads}-core host"
            );
            violations += 1;
        }
        if kernel.expects_parallelism && threads <= 1 {
            one_thread_offenders.push(name.clone());
        }
        let mut fields = row.fields;
        fields.extend([
            ("max_abs_diff", diff.into()),
            ("tolerance", tolerance.into()),
        ]);
        rows.push(report_line(&name, fields));
    }

    if size == Size::Smoke {
        println!("smoke mode: skipping BENCH_parallel.json rewrite");
    } else {
        // Written even when a gate fails, so misleading provenance is at
        // least visible.
        let report = JsonValue::object([
            (
                "generated_by",
                JsonValue::from("cargo run --release -p dre-bench --bin bench_parallel"),
            ),
            ("hw_threads", JsonValue::from(threads)),
            ("kernels", JsonValue::array(rows)),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
        std::fs::write(path, report.pretty()).expect("write BENCH_parallel.json");
        println!("wrote {path}");

        // Provenance gate: a full run that timed thread-scaling kernels on
        // a single-thread host must not pass quietly — its recorded speedups
        // would be ~1x noise dressed up as measurements.
        if !one_thread_offenders.is_empty() {
            eprintln!(
                "FAIL: parallelism-expecting kernel(s) ran on a single-thread host: {}",
                one_thread_offenders.join(", ")
            );
            eprintln!(
                "  re-run on a multi-core host so the recorded speedups and the \
                 \"hw_threads\" provenance mean something"
            );
            violations += 1;
        }
    }

    if violations > 0 {
        eprintln!("{violations} kernel(s) out of tolerance");
        std::process::exit(1);
    }
}

/// Wall time of repeated trials in milliseconds: the median, which every
/// derived rate and gate uses, and the p10/p90 spread around it.
#[derive(Debug, Clone, Copy)]
struct Timing {
    median: f64,
    p10: f64,
    p90: f64,
}

/// Recorded as `{"median", "p10", "p90"}`.
impl From<Timing> for JsonValue {
    fn from(t: Timing) -> JsonValue {
        JsonValue::object([
            ("median", t.median.into()),
            ("p10", t.p10.into()),
            ("p90", t.p90.into()),
        ])
    }
}

/// Times `trials` runs of `f`, returning their [`Timing`] and the last
/// result. Quantiles are nearest-rank over the sorted trials, so with
/// five trials p10/p90 are the fastest and slowest run.
fn time_trials<R>(trials: usize, mut f: impl FnMut() -> R) -> (Timing, R) {
    let mut ms = Vec::with_capacity(trials);
    let mut out = None;
    for _ in 0..trials {
        let t0 = Instant::now();
        let r = f();
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    ms.sort_by(f64::total_cmp);
    let rank = |q: f64| ms[(q * (ms.len() - 1) as f64).round() as usize];
    let timing = Timing {
        median: rank(0.5),
        p10: rank(0.1),
        p90: rank(0.9),
    };
    (timing, out.expect("trials >= 1"))
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// `count` units over `ms` milliseconds, as a per-second rate.
fn per_sec(count: usize, ms: f64) -> JsonValue {
    (count as f64 / (ms / 1e3)).into()
}

/// Positions where `a` and `b` differ.
fn mismatches<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Hardware threads the host can truly run at once.
fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A host that cannot truly run 4 workers at once timeshares them; its
/// scaling numbers are scheduling noise, so they are stamped rather than
/// gated.
fn degraded_host() -> bool {
    hw_threads() < 4
}

/// The provenance fields of a scaling row: what the host could truly run.
fn host_fields() -> [(&'static str, JsonValue); 2] {
    [
        ("hw_threads", hw_threads().into()),
        ("degraded", degraded_host().into()),
    ]
}

fn random_matrix(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

/// `m` points around three well-separated centers in `d` dimensions.
fn clustered_params(m: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded_rng(seed);
    let centers = [
        MvNormal::isotropic(vec![4.0; d], 0.05).expect("valid"),
        MvNormal::isotropic(vec![-4.0; d], 0.05).expect("valid"),
        MvNormal::isotropic(vec![0.0; d], 0.05).expect("valid"),
    ];
    (0..m)
        .map(|i| centers[i % centers.len()].sample(&mut rng))
        .collect()
}

/// The Gibbs kernels' input: clustered 6-D parameters and the cached
/// sampler's configuration.
fn gibbs_problem(size: Size) -> (Vec<Vec<f64>>, GibbsConfig) {
    let params = clustered_params(size.pick(30, 120), 6, 5);
    let config = GibbsConfig {
        alpha: 1.0,
        burn_in: 0,
        sweeps: size.pick(2, 5),
    };
    (params, config)
}

fn gibbs_sampler(config: GibbsConfig) -> DpNiwGibbs {
    let base = NormalInverseWishart::vague(6).expect("valid");
    DpNiwGibbs::new(base, config).expect("valid config")
}

/// Gibbs sweep, cached [`DpNiwGibbs::fit`] vs the exact-recompute
/// reference [`DpNiwGibbs::fit_exact`].
///
/// Identical sampler, identical seed, scoring served from per-cluster
/// predictive caches vs refactorized from scratch at every evaluation.
/// Same RNG stream, so assignments and the cluster trace must match
/// exactly; the log-joint trace agrees to the cache's documented
/// tolerance.
fn gibbs_sweep_cached(size: Size) -> Row {
    let (params, config) = gibbs_problem(size);
    let gibbs = gibbs_sampler(config);
    let rng = || seeded_rng(9);
    let (cached_ms, cached_fit) = time_trials(TRIALS, || {
        gibbs.fit(&params, &mut rng()).expect("fit succeeds")
    });
    let (exact_ms, exact_fit) = time_trials(TRIALS, || {
        gibbs.fit_exact(&params, &mut rng()).expect("fit succeeds")
    });
    let structural = mismatches(&cached_fit.assignments, &exact_fit.assignments)
        + mismatches(&cached_fit.cluster_trace, &exact_fit.cluster_trace);
    let diff = (structural as f64).max(max_abs_diff(
        &cached_fit.log_joint_trace,
        &exact_fit.log_joint_trace,
    ));
    let fields = vec![
        ("recompute_ms", exact_ms.into()),
        ("cached_ms", cached_ms.into()),
        ("speedup", (exact_ms.median / cached_ms.median).into()),
        ("cache_hit_rate", cached_fit.cache_stats.hit_rate().into()),
    ];
    Row::new(
        format!("gibbs_sweep_cached_m{}", params.len()),
        diff,
        fields,
    )
}

/// A chain of rank-1 updates to a d×d Cholesky factor two ways: O(d²)
/// in-place updates against a from-scratch O(d³) refactorization of the
/// accumulated matrix at every step.
fn chol_rank1_update(size: Size) -> Row {
    let d = size.pick(16, 64);
    let updates = 32;
    let mut rng = seeded_rng(17);
    let g = random_matrix(&mut rng, d, d);
    let mut spd = g.matmul(&g.transpose()).expect("square");
    spd.add_diag(d as f64);
    let vs: Vec<Vec<f64>> = (0..updates)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let (rank1_ms, rank1_chol) = time_trials(TRIALS, || {
        let mut chol = Cholesky::new(&spd).expect("spd");
        for v in &vs {
            chol.rank1_update(v).expect("update succeeds");
        }
        chol
    });
    let (refac_ms, refac_chol) = time_trials(TRIALS, || {
        let mut acc = spd.clone();
        let mut chol = Cholesky::new(&acc).expect("spd");
        for v in &vs {
            for i in 0..d {
                let row = acc.row_mut(i);
                for (j, r) in row.iter_mut().enumerate() {
                    *r += v[i] * v[j];
                }
            }
            chol = Cholesky::new(&acc).expect("spd");
        }
        chol
    });
    let diff = max_abs_diff(
        rank1_chol.reconstruct().as_slice(),
        refac_chol.reconstruct().as_slice(),
    );
    let fields = vec![
        ("refactorize_ms", refac_ms.into()),
        ("rank1_ms", rank1_ms.into()),
        ("speedup", (refac_ms.median / rank1_ms.median).into()),
    ];
    Row::new(format!("chol_rank1_update_d{d}"), diff, fields)
}

/// The fitted prior every serving kernel registers as task 1, and its
/// transfer payload.
fn serve_prior() -> (MixturePrior, Vec<u8>) {
    let pdim = 21; // packed parameters of a 20-feature model
    let prior = MixturePrior::new(
        (0..4)
            .map(|i| {
                let mut cov = Matrix::identity(pdim);
                cov.add_diag(0.5);
                (1.0, vec![i as f64; pdim], cov)
            })
            .collect(),
    )
    .expect("valid prior");
    let payload = dro_edge::transfer::serialize_prior(&prior);
    (prior, payload)
}

/// A loopback server with `workers` event-loop workers serving `prior` as
/// task 1. Dropping the handle shuts it down.
fn serve(workers: usize, prior: &MixturePrior) -> ServerHandle {
    let server = PriorServer::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    server.register_prior(1, prior);
    server
}

/// `clients` threads fetch task 1 from `addr`, `requests` fetches in
/// total; returns how many payloads arrived byte-different from `expected`.
fn fetch_fleet(
    addr: SocketAddr,
    clients: usize,
    requests: usize,
    keep_alive: bool,
    expected: &[u8],
) -> usize {
    let per = requests / clients;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut client =
                        PriorClient::new(TcpConnector::new(addr), RetryPolicy::default())
                            .keep_alive(keep_alive);
                    let mut payload = Vec::new();
                    (0..per)
                        .filter(|_| {
                            client
                                .fetch_prior_payload_into(1, &mut payload)
                                .expect("loopback fetch");
                            payload != expected
                        })
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    })
}

/// Prior responses `server` did not answer from its pre-encoded frame
/// cache, plus one if that cached frame differs from a fresh encode.
fn cache_faults(server: &ServerHandle, expected: &[u8]) -> usize {
    let m = server.metrics();
    let fresh = dre_serve::frame::encode(&dre_serve::frame::Message::PriorResponse {
        payload: expected.to_vec(),
    });
    let cached = server.state().prior_entry(1).expect("prior cached").frame;
    m.responses_ok.saturating_sub(m.prior_cache_hits) as usize
        + usize::from(cached[..] != fresh[..])
}

/// A real TCP prior server on loopback: requests/sec fetching a fitted
/// prior with 1 client thread vs a small fleet, a fresh connection per
/// request. The diff counts payloads that arrived byte-different from the
/// registered one — the frame CRC makes that impossible, so the tolerance
/// is zero.
fn serve_loopback_rps(size: Size) -> Row {
    let (prior, expected) = serve_prior();
    let clients = hw_threads().clamp(2, 8);
    let server = serve(clients, &prior);
    let requests = size.pick(64, 512);
    let fleet = |clients| fetch_fleet(server.addr(), clients, requests, false, &expected);
    let (one_ms, bad_one) = time_trials(TRIALS, || fleet(1));
    let (fleet_ms, bad_fleet) = time_trials(TRIALS, || fleet(clients));
    let fields = vec![
        ("one_client_ms", one_ms.into()),
        ("fleet_ms", fleet_ms.into()),
        ("speedup", (one_ms.median / fleet_ms.median).into()),
        ("requests", requests.into()),
        ("rps_one_client", per_sec(requests, one_ms.median)),
        ("rps_fleet", per_sec(requests, fleet_ms.median)),
    ];
    let diff = (bad_one + bad_fleet) as f64;
    Row::new(format!("serve_loopback_rps_c{clients}"), diff, fields)
}

/// Same fleet concurrency, two client modes against one server: a fresh
/// TCP connect per request vs one live stream per client with reusable
/// scratch buffers. The server answers every prior hit from its
/// pre-encoded frame cache in both modes, so the speedup isolates
/// connection amortization. The diff counts corrupted payloads, prior
/// responses not served from the cache, and a cached frame that differs
/// from a fresh `frame::encode` — the hot path must be fast *and* honest,
/// so the tolerance is zero.
fn serve_loopback_rps_keepalive(size: Size) -> Row {
    let (prior, expected) = serve_prior();
    let clients = hw_threads().clamp(2, 8);
    let server = serve(clients, &prior);
    let requests = size.pick(64, 512);
    let fleet = |keep_alive| fetch_fleet(server.addr(), clients, requests, keep_alive, &expected);
    let (fresh_ms, bad_fresh) = time_trials(TRIALS, || fleet(false));
    let (keepalive_ms, bad_keepalive) = time_trials(TRIALS, || fleet(true));
    let fields = vec![
        ("fresh_ms", fresh_ms.into()),
        ("keepalive_ms", keepalive_ms.into()),
        ("speedup", (fresh_ms.median / keepalive_ms.median).into()),
        ("requests", requests.into()),
        ("clients", clients.into()),
        // Single-core numbers are self-describing: this is the host's
        // thread count, not the fleet size.
        ("threads", hw_threads().into()),
        ("rps_fresh", per_sec(requests, fresh_ms.median)),
        ("rps_keepalive", per_sec(requests, keepalive_ms.median)),
    ];
    let diff = (bad_fresh + bad_keepalive + cache_faults(&server, &expected)) as f64;
    Row::new("serve_loopback_rps_keepalive".to_string(), diff, fields)
}

/// The same keep-alive client fleet against two servers: one event-loop
/// worker, where every stream funnels through one core, vs the per-core
/// polled runtime with one worker per core — plus a
/// fresh-connect-per-request run against the per-core server as the
/// unamortized baseline. The headline `speedup` is aggregate per-core
/// req/s over the single-worker req/s, gated at ≥ 3×. The diff counts
/// corrupted payloads, uncached responses and cached-frame mismatches on
/// either server — zero tolerance: scaling must not cost a single
/// corrupted or uncached byte.
fn serve_loopback_rps_multicore(size: Size) -> Row {
    let (prior, expected) = serve_prior();
    let workers = hw_threads().clamp(4, 8);
    let clients = workers * 2;
    let requests = size.pick(128, 4096);
    let fleet = |server: &ServerHandle, keep_alive| {
        fetch_fleet(server.addr(), clients, requests, keep_alive, &expected)
    };

    let single = serve(1, &prior);
    let (single_ms, bad_single) = time_trials(TRIALS, || fleet(&single, true));
    let mut bad = bad_single + cache_faults(&single, &expected);
    drop(single);

    let percore = serve(workers, &prior);
    let (fresh_ms, bad_fresh) = time_trials(TRIALS, || fleet(&percore, false));
    let (percore_ms, bad_percore) = time_trials(TRIALS, || fleet(&percore, true));
    bad += bad_fresh + bad_percore + cache_faults(&percore, &expected);

    let mut fields = vec![
        ("fresh_ms", fresh_ms.into()),
        ("single_worker_ms", single_ms.into()),
        ("percore_ms", percore_ms.into()),
        ("speedup", (single_ms.median / percore_ms.median).into()),
        ("requests", requests.into()),
        ("clients", clients.into()),
        // Provenance: `threads` is the server worker threads the per-core
        // run actually spawned; `hw_threads` is what the host could truly
        // run at once. A report with hw_threads < threads is timesharing,
        // not scaling.
        ("threads", workers.into()),
    ];
    fields.extend(host_fields());
    fields.extend([
        ("rps_fresh", per_sec(requests, fresh_ms.median)),
        ("rps_single_worker", per_sec(requests, single_ms.median)),
        ("rps_percore", per_sec(requests, percore_ms.median)),
    ]);
    Row::new(
        "serve_loopback_rps_multicore".to_string(),
        bad as f64,
        fields,
    )
}

/// The scale-out claim, measured end to end: the same routed keep-alive
/// client fleet fetching per-task priors from a 1-shard plane vs a 4-shard
/// plane. Each shard runs ONE event-loop worker, so any aggregate win
/// comes from sharding itself, not from giving the bigger plane more
/// threads per server. Every client routes through a `ShardDirectory`;
/// steady-state routing must be clean, so the diff counts corrupted
/// payloads, client retries, and server-side misroutes summed across every
/// shard — zero tolerance. Gated at ≥ 2× aggregate req/s.
fn serve_sharded_rps(size: Size) -> Row {
    let (_, expected) = serve_prior();
    let tasks: Vec<u64> = (1..=8).collect();
    let requests = size.pick(128, 4096);
    let per = requests / tasks.len();
    let run_plane = |shards: usize| -> (Timing, usize) {
        let mut plane = ShardedPriorPlane::bind(ShardPlaneConfig {
            shards,
            replication: 2.min(shards),
            serve: ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            ..ShardPlaneConfig::default()
        })
        .expect("bind sharded plane");
        for &task in &tasks {
            plane.register_payload(task, expected.clone());
        }
        let directory = plane.directory();
        let fetch_all = |task: u64| {
            let mut client = directory.client_for(task, RetryPolicy::default());
            let mut payload = Vec::new();
            let corrupted = (0..per)
                .filter(|_| {
                    client
                        .fetch_prior_payload_into(task, &mut payload)
                        .expect("routed fetch");
                    payload != expected
                })
                .count();
            corrupted + client.metrics().retries as usize
        };
        let (ms, bad) = time_trials(TRIALS, || {
            std::thread::scope(|s| {
                let handles: Vec<_> = tasks
                    .iter()
                    .map(|&task| s.spawn(move || fetch_all(task)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .sum::<usize>()
            })
        });
        let misroutes: u64 = (0..shards)
            .map(|i| plane.shard_metrics(i).map_or(0, |m| m.misroutes))
            .sum();
        plane.shutdown();
        (ms, bad + misroutes as usize)
    };
    let (one_ms, bad_one) = run_plane(1);
    let (four_ms, bad_four) = run_plane(4);
    let mut fields = vec![
        ("one_shard_ms", one_ms.into()),
        ("four_shard_ms", four_ms.into()),
        ("speedup", (one_ms.median / four_ms.median).into()),
        ("requests", requests.into()),
        ("clients", tasks.len().into()),
        ("shards", 4usize.into()),
        ("workers_per_shard", 1usize.into()),
        // Provenance: aggregate scaling needs the shards to truly run in
        // parallel, so record what the host could actually do.
        ("threads", hw_threads().into()),
    ];
    fields.extend(host_fields());
    fields.extend([
        ("rps_one_shard", per_sec(requests, one_ms.median)),
        ("rps_four_shards", per_sec(requests, four_ms.median)),
    ]);
    let diff = (bad_one + bad_four) as f64;
    Row::new("serve_sharded_rps".to_string(), diff, fields)
}

/// The graceful-degradation edge runtime (breaker + stale cache + local
/// fallback) over healthy vs heavily faulted in-memory links. The diff
/// counts accuracy readings that fell below that device's own local-only
/// ERM floor — the degradation ladder guarantees zero, so CI fails if a
/// degraded fit ever underperforms the fallback the runtime could have
/// used instead.
fn edge_runtime_degraded_rps(size: Size) -> Row {
    let devices = size.pick(2, 4);
    let rounds = size.pick(3, 8);
    let sc = degraded_scenario(1_300, devices);
    let run = |fault_rate: f64| {
        let mut fleet = spawn_degraded_fleet(&sc, fault_rate, 1);
        run_degraded_rounds(&sc, &mut fleet, rounds)
    };
    let (healthy_ms, healthy) = time_trials(TRIALS, || run(0.0));
    let (degraded_ms, degraded) = time_trials(TRIALS, || run(0.6));
    let fits = devices * rounds;
    let fields = vec![
        ("healthy_ms", healthy_ms.into()),
        ("degraded_ms", degraded_ms.into()),
        ("fits", fits.into()),
        ("fits_per_sec_healthy", per_sec(fits, healthy_ms.median)),
        ("fits_per_sec_degraded", per_sec(fits, degraded_ms.median)),
    ];
    let diff = (readings_below_floor(&healthy) + readings_below_floor(&degraded)) as f64;
    Row::new("edge_runtime_degraded_rps".to_string(), diff, fields)
}

/// The learner kernels' report stream (two tight, alternating 6-D
/// clusters) and filter setup.
struct SirProblem {
    reports: Vec<Vec<f64>>,
    base: NormalInverseWishart,
    config: SirConfig,
}

impl SirProblem {
    fn new(size: Size) -> Self {
        let d = 6;
        let mut rng = seeded_rng(21);
        let hi = MvNormal::isotropic(vec![4.0; d], 0.01).expect("valid");
        let lo = MvNormal::isotropic(vec![-4.0; d], 0.01).expect("valid");
        let reports = (0..size.pick(24, 192))
            .map(|i| {
                if i % 2 == 0 {
                    hi.sample(&mut rng)
                } else {
                    lo.sample(&mut rng)
                }
            })
            .collect();
        let base =
            NormalInverseWishart::new(vec![0.0; d], 0.05, Matrix::identity(d), d as f64 + 2.0)
                .expect("valid base");
        let config = SirConfig {
            num_particles: 32,
            alpha: 1.0,
            ess_fraction: 0.5,
            seed: 17,
        };
        SirProblem {
            reports,
            base,
            config,
        }
    }

    fn filter(&self) -> SirDpFilter {
        SirDpFilter::new(self.base.clone(), self.config.clone()).expect("valid config")
    }

    /// Streams every report through a fresh filter and collapses it.
    fn refresh(&self) -> MixturePrior {
        let mut filter = self.filter();
        for x in &self.reports {
            filter.push(x).expect("push succeeds");
        }
        filter.to_mixture_prior().expect("collapse succeeds")
    }
}

/// Streaming learner refresh: reports/sec through the SIR particle filter,
/// collapsed into a refreshed DP prior. The filter runs on the calling
/// thread in every mode.
/// The streamed collapse must agree with an exact collapsed-Gibbs refit on
/// the same pooled reports — both paths share the collapse rule, so a
/// matched partition leaves only fp noise under the 1e-6 gate, and a
/// partition mismatch counts whole units.
fn learner_refresh_reports_per_sec(size: Size) -> Row {
    let problem = SirProblem::new(size);
    let (ms, prior) = time_trials(TRIALS, || problem.refresh());
    let gibbs = DpNiwGibbs::new(
        problem.base.clone(),
        GibbsConfig {
            alpha: 1.0,
            burn_in: 30,
            sweeps: 30,
        },
    )
    .expect("valid config");
    let fit = gibbs
        .fit(&problem.reports, &mut seeded_rng(99))
        .expect("fit succeeds");
    let refit = gibbs
        .to_mixture_prior(&problem.reports, &fit.assignments)
        .expect("collapse succeeds");
    let sorted = |p: &MixturePrior| -> Vec<(f64, Vec<f64>, Matrix)> {
        let mut out: Vec<_> = p
            .components()
            .iter()
            .map(|c| (c.weight(), c.mean().to_vec(), c.cov()))
            .collect();
        out.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("finite weights")
                .then(a.1[0].partial_cmp(&b.1[0]).expect("finite means"))
        });
        out
    };
    let divergence = if prior.num_components() != refit.num_components() {
        (prior.num_components() as f64 - refit.num_components() as f64).abs()
    } else {
        sorted(&prior)
            .iter()
            .zip(&sorted(&refit))
            .map(|((wa, ma, ca), (wb, mb, cb))| {
                (wa - wb)
                    .abs()
                    .max(max_abs_diff(ma, mb))
                    .max(max_abs_diff(ca.as_slice(), cb.as_slice()))
            })
            .fold(0.0, f64::max)
    };
    let reports = problem.reports.len();
    let fields = vec![
        ("serial_ms", ms.into()),
        ("reports", reports.into()),
        ("particles", problem.config.num_particles.into()),
        ("reports_per_sec_serial", per_sec(reports, ms.median)),
        ("refit_divergence", divergence.into()),
    ];
    Row::new(
        "learner_refresh_reports_per_sec".to_string(),
        divergence,
        fields,
    )
}

/// Every component's weight, mean and covariance, in order.
fn flatten(prior: &MixturePrior) -> Vec<f64> {
    let mut out = Vec::new();
    for c in prior.components() {
        out.push(c.weight());
        out.extend_from_slice(c.mean());
        out.extend_from_slice(c.cov().as_slice());
    }
    out
}

/// The Byzantine-admission gate's overhead on the refresh stream: score
/// each report with the filter's collapsed predictive marginal, consult
/// the rolling-quantile gate and the reputation ledger, then push. On this
/// all-honest stream every report must be admitted, so the gated refresh
/// collapses to the bit-identical prior (any f64 mismatch or gated report
/// counts whole units into the diff) — and the wall-clock it adds over the
/// bare refresh is the price of robustness, gated below 10%.
fn report_admission_reports_per_sec(size: Size) -> Row {
    let problem = SirProblem::new(size);
    let (refresh_ms, bare) = time_trials(TRIALS, || problem.refresh());
    let (adm_ms, (admitted, gated)) = time_trials(TRIALS, || {
        let mut filter = problem.filter();
        // A wide margin keeps the two alternating honest clusters inside
        // the gate even while the rolling window is still short.
        let mut adm = AdmissionState::new(AdmissionConfig {
            margin: 32.0,
            ..AdmissionConfig::default()
        })
        .expect("valid admission config");
        let mut gated = 0usize;
        for (i, x) in problem.reports.iter().enumerate() {
            let score = filter.score_report(x).expect("score succeeds");
            if adm.admit(9, i as u64 % 16, Some(score)).admitted() {
                filter.push(x).expect("push succeeds");
            } else {
                gated += 1;
            }
        }
        (filter.to_mixture_prior().expect("collapse succeeds"), gated)
    });
    let (bare, admitted) = (flatten(&bare), flatten(&admitted));
    let prior_mismatches = if bare.len() != admitted.len() {
        1
    } else {
        mismatches(&bare, &admitted)
    };
    let reports = problem.reports.len();
    let fields = vec![
        ("refresh_ms", refresh_ms.into()),
        ("admitted_ms", adm_ms.into()),
        (
            "overhead_fraction",
            (adm_ms.median / refresh_ms.median - 1.0).into(),
        ),
        ("reports", reports.into()),
        ("reports_gated", gated.into()),
        ("reports_per_sec", per_sec(reports, adm_ms.median)),
    ];
    let diff = (prior_mismatches + gated) as f64;
    Row::new("report_admission_reports_per_sec".to_string(), diff, fields)
}

/// The flat-state simulator core pushing a full prior-transfer fleet
/// through the one-big-switch fabric: every request, transport ack,
/// payload segment, and EM completion is one heap-ordered event. The
/// scenario is the same clean-completion shape the release scale gate
/// (`tests/scale.rs`) uses — port queues sized to absorb the incast, RTO
/// parked above the drain time — so the measured rate is pure executor
/// throughput, not timer churn. Determinism doubles as the correctness
/// check: a rerun must reproduce the whole report (every per-device f64
/// included) bit-for-bit, and any mismatch, drop, or retransmission counts
/// a whole unit into the diff. Gated at ≥ 1M events/sec.
fn edgesim_events_per_sec(size: Size) -> Row {
    let devices: usize = size.pick(5_000, 100_000);
    let topo = Topology::one_big_switch(Link::new_ms(1.0, 1e12)).with_switch(SwitchConfig {
        queue_capacity: 2 * devices as u32 + 16,
        rto: SimDuration::from_secs_f64(3600.0),
        ..SwitchConfig::default()
    });
    let mut fleet = Scenario::new(ComputeModel::default()).with_topology(topo);
    for _ in 0..devices {
        fleet.add_device(DeviceSpec {
            link: Link::new_ms(5.0, 1e6),
            strategy: Strategy::PriorTransfer {
                samples: 100,
                dim: 8,
                iterations: 50,
                em_rounds: 4,
                prior_components: 2,
            },
        });
    }
    let (ms, report) = time_trials(TRIALS, || fleet.run());
    let rerun = fleet.run();
    let diff = f64::from(rerun != report)
        + f64::from(report.messages_dropped != 0)
        + f64::from(report.bytes_retransmitted != 0);
    let events = report.events_executed as usize;
    let mut fields = vec![
        ("run_ms", ms.into()),
        ("devices", devices.into()),
        ("events_executed", events.into()),
        ("events_per_sec", per_sec(events, ms.median)),
    ];
    fields.extend(host_fields());
    Row::new("edgesim_events_per_sec".to_string(), diff, fields)
}
