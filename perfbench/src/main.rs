//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-warm|batch-cold|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one workload's inputs from the seed, runs it for about the given
//! time, checks its answers against a sequential reference, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones, measured
//! untraced; with `--trace 1` they are the per-layer ones from a traced
//! replay. The line before it records the run's context (seed, rates,
//! threads, kernel backend and tier). A run whose own preconditions fail
//! (open-loop rejections, generator lag, achieved rate off the offered one)
//! prints no result and exits with code 3.

mod check;
mod drive;
mod rng;
mod stats;
mod trace;
mod workloads;

use workloads::{Args, Outcome};

/// End-to-end metrics (every workload, `--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("swap_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (every workload, `--trace 1`): name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.latency_p95_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.submit_lag_max_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("advance.build_ms", "ms"),
    ("advance.maint_dist_comps", "count"),
    ("advance.index_clone_ms", "ms"),
    ("advance.index_update_us", "us"),
    ("advance.cache_filled_ratio", "ratio"),
    ("rdt.query_p50_ms", "ms"),
    ("rdt.query_p95_ms", "ms"),
    ("rdt.self_ms", "ms"),
    ("rdt.retrieved", "count"),
    ("rdt.witness_pairs", "count"),
    ("rdt.witness_dist_comps", "count"),
    ("rdt.verified", "count"),
    ("rdt.lazy_accepts", "count"),
    ("rdt.lazy_rejects", "count"),
    ("rdt.rankcap_share", "ratio"),
    ("rdt.result_per_retrieved", "ratio"),
    ("rdt.verify_accept_ratio", "ratio"),
    ("dkcache.hits", "count"),
    ("dkcache.misses", "count"),
    ("dkcache.hit_rate", "ratio"),
    ("batch.imbalance", "ratio"),
    ("index.filter_ms", "ms"),
    ("index.verify_ms", "ms"),
    ("index.dist_comps", "count"),
    ("index.nodes_visited", "count"),
    ("index.heap_pushes", "count"),
    ("index.build_s", "s"),
    ("kernel.ns_per_dist", "ns"),
    ("kernel.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("failed_share", "ratio"),
];

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, Some(false));
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is out of range (0, 120]"));
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let mut out: Outcome = match workload.as_str() {
        "serve-warm" => workloads::serve_warm(args),
        "batch-cold" => workloads::batch_cold(args),
        "churn" => workloads::churn(args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (serve-warm, batch-cold, churn)");
            std::process::exit(2);
        }
    };
    workloads::common_context(&mut out, &workload, args);
    if let Some(reason) = &out.invalid {
        eprintln!("perfbench: run invalid, not recorded: {reason}");
        std::process::exit(3);
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    if args.trace {
        out.metrics.insert("failed_share", failed_share);
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => metrics.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )),
            other => {
                eprintln!("perfbench: metric {name} is missing or not finite ({other:?})");
                std::process::exit(4);
            }
        }
    }
    let context: Vec<String> = out
        .context
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"context\": {{{}}}}}", context.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.mismatches == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
