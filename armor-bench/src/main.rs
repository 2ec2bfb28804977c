//! End-to-end benchmark of the spiking-armor workspace.
//!
//! ```text
//! cargo run --release --manifest-path armor-bench/Cargo.toml -- \
//!     --workload grid|sweep|serve|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload: it sets up (several times; `setup_s` is
//! the median), runs the timed part for `--seconds` with the program's
//! recording off, checks every output against a reference, and prints the
//! end-to-end metrics. `--trace 1` adds a traced run that records spans
//! around each call the benchmark makes into a workspace crate, reads the
//! program's own counters and spans, and prints the per-layer metrics
//! instead. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! Run stores go to `.bench_runs/` (removed on exit) and spans to
//! `.bench_traces/`, both under the working directory.

mod audit;
mod common;
mod fleet;
mod grid;
mod ladder;
mod serve_load;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Report};

const USAGE: &str =
    "usage: armor-bench --workload grid|sweep|serve|fleet --seed N --seconds S --trace 0|1";

/// The end-to-end metrics every workload prints with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload prints with `--trace 1`; a layer a
/// workload never reaches reads 0. Figures only the unlisted `grid` and
/// `fleet` workloads produce go to stderr.
const PER_LAYER: [(&str, &str); 20] = [
    ("dataset.prepare_s", "s"),
    ("nn.train_epoch_s", "s"),
    ("nn.prepack_hit_ratio", "ratio"),
    ("tensor.gemm_macs", "count"),
    ("tensor.gmacs_per_s", "GMAC/s"),
    ("tensor.pool_dispatches", "count"),
    ("tensor.event_sparse_share", "ratio"),
    ("snn.spikes_per_window", "ratio"),
    ("snn.forward_ms", "ms"),
    ("attacks.pgd_iter_ms", "ms"),
    ("attacks.eps_eval_s", "s"),
    ("store.checkpoint_save_ms", "ms"),
    ("store.checkpoint_load_ms", "ms"),
    ("store.claim_release_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.batch_rows", "ratio"),
    ("serve.outside_model_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.generator_lag_ms", "ms"),
    ("obs.trace_overhead_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        flags.insert(name, value.clone());
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("{name} is required"));
    let workload = get("--workload")?.clone();
    if !["grid", "sweep", "serve", "fleet"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".bench_runs").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
    };
    eprintln!(
        "armor-bench: workload {} seed {} seconds {} trace {} ({} cores available)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tensor::parallel::available_cores()
    );
    let report: Report = match args.workload.as_str() {
        "grid" => grid::run(&ctx),
        "sweep" => sweep::run(&ctx),
        "serve" => serve_load::run(&ctx),
        _ => fleet::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    if args.trace {
        let path = PathBuf::from(".bench_traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let spans = trace::spans();
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
        eprintln!(
            "self time by layer (benchmark spans, {} recorded, {}):",
            spans.len(),
            path.display()
        );
        for (layer, s) in trace::self_time_by_layer(&spans) {
            eprintln!("  {layer:<10} {s:>10.4} s");
        }
    }

    let lat = &report.latency_ms;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            metrics.push((name, report.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let values = [
            stats::median(&report.setup_s).unwrap_or(f64::NAN),
            report.throughput,
            stats::median(lat).unwrap_or(f64::NAN),
            stats::percentile(lat, 90.0).unwrap_or(f64::NAN),
            common::peak_rss_mib(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, v, unit));
        }
    }

    eprintln!("workload figures:");
    for (name, v, unit) in &report.named {
        eprintln!("  {name:<30} {v:>14.4} {unit}");
    }
    for (name, v) in &report.layers {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            eprintln!("  {name:<30} {v:>14.4}");
        }
    }
    let tail = stats::tail(lat).map_or("none (fewer than 20 samples)".to_string(), |(p, v)| {
        format!("p{p} = {v:.3} ms")
    });
    let (q1, q3) = stats::quartiles(lat).unwrap_or((f64::NAN, f64::NAN));
    eprintln!(
        "  {:<30} {:>14} (quartiles {q1:.3} / {q3:.3} ms; tail with ten beyond: {tail})",
        "latency samples",
        lat.len(),
    );
    eprintln!(
        "  {:<30} {:>14.4} ratio ({} of {} failed)",
        "failed_share",
        common::ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    eprintln!("metrics:");
    for (name, v, unit) in &metrics {
        eprintln!("  {name:<30} {v:>14.4} {unit}");
    }
    for f in report.failures.iter().take(20) {
        eprintln!("failure: {f}");
    }
    for m in &report.mismatches {
        eprintln!("MISMATCH: {m}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.mismatches.is_empty(),
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
