//! Command line of the fleet-loop benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path fleetbench/Cargo.toml -- \
//!     --workload <fleet_round|report_ingest|plane_fetch|fleet_sim|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs untraced reference passes, then traced passes, and reports the
//! per-layer metrics. The last stdout line is the JSON result; the process
//! exits non-zero when a correctness check fails.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dre_fleetbench::report::{self, END_TO_END, PER_LAYER};
use dre_fleetbench::workloads::{
    self, fleet_round::FleetRound, fleet_sim::FleetSim, measure, plane_fetch::PlaneFetch,
    report_ingest::ReportIngest, Outcome, Workload,
};
use dre_fleetbench::{alloc::CountingAlloc, stats, trace};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Share of a traced run's budget spent on untraced reference passes.
const REFERENCE_SHARE: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Generates a workload's inputs from the seed.
fn inputs(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "fleet_round" => Box::new(FleetRound::inputs(seed)),
        "report_ingest" => Box::new(ReportIngest::inputs(seed)),
        "plane_fetch" => Box::new(PlaneFetch::inputs(seed)),
        "fleet_sim" => Box::new(FleetSim::inputs(seed)),
        _ => unreachable!("workload names are validated by parse"),
    }
}

fn provenance(args: &Args, outcomes: &[&Outcome], generate_s: f64, inputs_heap_mb: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rev =
        report::git_revision().map_or("null".to_string(), |r| format!("\"{}\"", report::esc(&r)));
    let passes: Vec<String> = outcomes.iter().map(|o| o.passes.to_string()).collect();
    let samples: Vec<String> = outcomes.iter().map(|o| o.op_ms.len().to_string()).collect();
    let windows: Vec<String> = outcomes
        .iter()
        .map(|o| o.window_s.len().to_string())
        .collect();
    let setups: Vec<String> = outcomes
        .iter()
        .map(|o| o.setup_s.len().to_string())
        .collect();
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{nproc},\
         \"effective_threads\":{},\"default_policy_threads\":{},\"parallel_feature\":{},\
         \"server_workers\":{},\
         \"git_revision\":{rev},\"generate_s\":{},\"inputs_heap_mb\":{},\"passes\":[{}],\"latency_samples\":[{}],\
         \"windows\":[{}],\"setups\":[{}]}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        dre_parallel::with_serial(dre_parallel::effective_threads),
        dre_parallel::effective_threads(),
        cfg!(feature = "parallel"),
        outcomes.first().map_or(0, |o| o.server_workers),
        report::num(generate_s),
        report::num(inputs_heap_mb),
        passes.join(","),
        samples.join(","),
        windows.join(","),
        setups.join(","),
    )
}

fn run_one(args: &Args) -> ExitCode {
    // Measured passes run under the serial thread policy: on a two-core host
    // the default policy's per-call thread spawns make figures swing by
    // 15-30% from run to run. The traced run measures what the default
    // policy costs (`threads.default_slowdown`).
    let generate = Instant::now();
    let workload = dre_parallel::with_serial(|| inputs(&args.workload, args.seed));
    let generate_s = generate.elapsed().as_secs_f64();
    let inputs_heap_mb = dre_fleetbench::alloc::peak_bytes() as f64 / (1024.0 * 1024.0);
    let budget = Duration::from_secs_f64(args.seconds);

    let (outcomes, values, table) = if args.trace {
        let w = workload.as_ref();
        let reference = dre_parallel::with_serial(|| measure(w, budget.mul_f64(REFERENCE_SHARE)));
        trace::enable();
        let traced =
            dre_parallel::with_serial(|| measure(w, budget.mul_f64(1.0 - REFERENCE_SHARE)));
        trace::disable();
        let default_policy = measure(w, Duration::ZERO);
        let values = report::per_layer(&traced, &reference, &default_policy);
        (
            vec![reference, traced, default_policy],
            values,
            &PER_LAYER[..],
        )
    } else {
        let out = dre_parallel::with_serial(|| measure(workload.as_ref(), budget));
        let values = report::end_to_end(&out);
        (vec![out], values, &END_TO_END[..])
    };
    let refs: Vec<&Outcome> = outcomes.iter().collect();
    println!("{}", provenance(args, &refs, generate_s, inputs_heap_mb));

    if args.trace {
        let traced = &outcomes[1];
        let measured_ns = traced.measured_s() * 1e9;
        println!("# span  count  mean_us  self_us  self_share_of_measured_wall");
        for (name, s) in trace::stats() {
            println!(
                "# {name}  {}  {:.3}  {:.3}  {:.4}",
                s.count,
                s.mean_us(),
                s.mean_self_us(),
                s.self_ns as f64 / measured_ns
            );
        }
        if args.workload == "fleet_round" {
            println!(
                "# edge.fit_ms is edge.step self time: EdgeRuntime::fit_step minus its wrapped \
                 transport calls (subtraction; includes client-side frame and payload decode)"
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", args.workload));
        match trace::dump(&path) {
            Ok(n) => println!("# {n} spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    } else {
        let out = &outcomes[0];
        let rates = stats::window_rates(&out.window_units, &out.window_s);
        let wall = BTreeMap::from([
            ("latency_ms_p50", stats::median(&out.op_ms)),
            ("latency_ms_p90", stats::quantile(&out.op_ms, 0.9)),
            ("throughput_per_s", stats::median(&rates)),
        ]);
        println!(
            "# wall clock: reference kernel {} us (n={}), host scale {}",
            report::num(stats::median(&out.reference_s) * 1e6),
            out.reference_s.len(),
            report::num(report::host_scale(out))
        );
        for (name, unit, generic, scale) in report::workload_names(&args.workload) {
            println!(
                "# {name} = {} {unit} (wall clock, n={})",
                report::num(wall[generic] * scale),
                if generic.starts_with("latency") {
                    out.op_ms.len()
                } else {
                    out.window_s.len()
                }
            );
        }
        if args.workload == "fleet_round" {
            println!(
                "# eval_accuracy = {} ratio",
                report::num(out.layer_mean("edge.eval_accuracy"))
            );
        }
    }

    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let problems: Vec<&String> = outcomes.iter().flat_map(|o| &o.problems).collect();
    for p in problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, table, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, so no workload inherits
/// another's heap or threads, and prints each child's output, then a
/// combined result line whose metric names are `<workload>.<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for name in workloads::NAMES {
        let output = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{name}: could not run: {e}");
                ok = false;
                continue;
            }
        };
        ok &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        println!("## {name}");
        for l in lines {
            println!("{l}");
        }
        println!("{last}");
        attempted += count_field(last, "attempted");
        failed += count_field(last, "failed");
        for (metric, value) in metric_entries(last) {
            metrics.push(format!("\"{name}.{metric}\":{value}"));
        }
    }
    println!(
        "{{\"correct\":{ok},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The whole-number field `field` of a result line (0 when absent).
fn count_field(line: &str, field: &str) -> u64 {
    line.split(&format!("\"{field}\":"))
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// The `"name":{"value":…,"unit":"…"}` entries of a result line, as
/// `(name, object)` pairs.
fn metric_entries(line: &str) -> Vec<(String, String)> {
    let Some(body) = line.split("\"metrics\":{").nth(1) else {
        return Vec::new();
    };
    body.split("},")
        .filter_map(|entry| {
            let (name, object) = entry.split_once(":{")?;
            let object = object.trim_end_matches('}');
            Some((name.trim_matches('"').to_string(), format!("{{{object}}}")))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
