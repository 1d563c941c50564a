//! Benchmark entry point.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload auth_fleet --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints the run environment, then one JSON object as the last line
//! of standard output: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). A traced run also writes its spans as JSON lines under
//! `perfbench/out/`.

use neuropuls_perfbench::runner::{self, hex, Metric, Round, Workload};
use neuropuls_perfbench::span;
use neuropuls_rt::pool;
use std::process::ExitCode;

/// Pool width of every run. One worker: on a small VM shared with
/// other tenants a second worker makes each batch wait for the slower
/// vCPU, which moved `sealed_infer` by up to 40 % between processes.
const POOL_WIDTH: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_spans(args: &Args, rounds: &[Round]) -> Result<(), String> {
    let spans: Vec<_> = rounds
        .iter()
        .filter_map(|r| r.spans.as_ref())
        .flat_map(|(_, run)| run.iter().copied())
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans_{}_{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    span::write_jsonl(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <auth_fleet|attest_burst|sealed_infer> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = POOL_WIDTH.min(nproc);
    let rounds = match pool::with_threads(width, || {
        runner::measure(args.workload, args.seed, args.seconds, args.trace)
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let digest = rounds
        .first()
        .map_or(String::new(), |r| hex(&r.pass.digest));
    println!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"pool_width\": {width}, \"rustc\": \"{}\", \"rounds\": {}, \"setup_puf_evals\": {}, \"digest\": \"{digest}\"}}}}",
        args.workload.name(),
        args.seed,
        env!("PERFBENCH_RUSTC"),
        rounds.len(),
        rounds.first().map_or(0, |r| r.setup_puf_evals),
    );

    let mut problems = Vec::new();
    if let Err(e) = runner::validity(&rounds, args.trace) {
        problems.push(e);
    }
    let metrics = if args.trace {
        if let Err(e) = write_spans(&args, &rounds) {
            problems.push(e);
        }
        runner::per_layer(args.workload, &rounds)
    } else {
        runner::end_to_end(&rounds)
    };
    let metrics = metrics.unwrap_or_else(|e| {
        problems.push(e);
        Vec::new()
    });
    for p in &problems {
        eprintln!("perfbench: {}: {p}", args.workload.name());
    }
    let untraced = rounds.iter().filter(|r| r.spans.is_none());
    let attempted: u64 = untraced.clone().map(|r| r.pass.attempted).sum();
    let completed: u64 = untraced.map(|r| r.pass.completed).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        problems.is_empty(),
        attempted - completed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
