//! End-to-end benchmark of the entity-matching system: streamed corpus
//! matching, open-loop serving and live ingest over one x16 case-study
//! scenario.
//!
//! ```text
//! em-perfbench --workload <stream_x16|serve_open|serve_ingest> \
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The ledger and the
//! checks go to standard error. The process exits 1 when a check fails and
//! 2 on a usage or set-up error (then without a result line).

mod common;
mod serve;
mod stream;

use common::{cpu_ticks, peak_rss_mib, Inputs, Report, Res, THREADS};
use std::time::Instant;

/// End-to-end metrics: name and unit. Every workload reports all of them
/// (see README.md for what each means on each workload).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pairs_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("ingest_rows_per_s", "1/s"),
];

/// Per-layer metrics from the traced run: name and unit. A layer that a
/// workload does not run reads 0 on that workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.train_s", "s"),
    ("text.tokenize_s", "s"),
    ("blocking.index_build_s", "s"),
    ("blocking.c1_s", "s"),
    ("rules.sure_s", "s"),
    ("features.extractor_build_s", "s"),
    ("blocking.probe_ns_per_row", "ns"),
    ("blocking.hits_per_row", "count"),
    ("features.extract_ns_per_pair", "ns"),
    ("features.memo_epochs", "count"),
    ("ml.impute_ns_per_pair", "ns"),
    ("ml.score_ns_per_pair", "ns"),
    ("rules.negative_ns_per_predicted", "ns"),
    ("parallel.speedup", "x"),
    ("stream.ns_per_pair_1t", "ns"),
    ("trace.layer_sum_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("sched.admit_ns", "ns"),
    ("sched.queue_wait_ms", "ms"),
    ("sched.batch_rows", "count"),
    ("sched.size_closed", "count"),
    ("sched.deadline_closed", "count"),
    ("loadgen.late_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("shard.leg_ms", "ms"),
    ("shard.skew", "ratio"),
    ("shard.overhead_ms", "ms"),
    ("serve.blocking_ms", "ms"),
    ("serve.rules_ms", "ms"),
    ("serve.features_ms", "ms"),
    ("serve.predict_ms", "ms"),
    ("serve.candidates_per_request", "count"),
    ("serve.ns_per_candidate", "ns"),
    ("serve.build_s", "s"),
    ("serve.push_us", "us"),
    ("wal.bytes_per_row", "B"),
    ("shard.rows_skew", "ratio"),
    ("wal.recover_s", "s"),
    ("wal.replay_rows_per_s", "1/s"),
];

const WORKLOADS: &[&str] = &["stream_x16", "serve_open", "serve_ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn run(args: &Args) -> Res<Report> {
    em_parallel::set_threads(THREADS);
    let t0 = Instant::now();
    let inputs = Inputs::generate()?;
    eprintln!(
        "inputs: x{} scenario seed {} — {} UMETRICS x {} USDA rows, generated in {:.2}s, \
         peak RSS so far {:.1} MiB",
        common::SCALE,
        common::SCENARIO_SEED,
        inputs.u.n_rows(),
        inputs.d.n_rows(),
        common::secs(t0),
        peak_rss_mib()
    );
    let mut report = Report::default();
    let (steal0, total0) = cpu_ticks();
    match args.workload.as_str() {
        "stream_x16" => stream::run(&inputs, args.seed, args.seconds, args.trace, &mut report)?,
        "serve_open" => serve::run_open(&inputs, args.seed, args.seconds, args.trace, &mut report)?,
        _ => serve::run_ingest(&inputs, args.seed, args.seconds, &mut report)?,
    }
    let (steal1, total1) = cpu_ticks();
    eprintln!(
        "host steal {:.2}% of CPU time during the workload",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    eprintln!("peak RSS at exit {:.1} MiB", peak_rss_mib());
    Ok(report)
}

/// Renders the result line. Every metric of the selected kind appears;
/// an end-to-end metric the workload failed to set is an error.
fn result_json(report: &Report, trace: bool) -> Result<String, String> {
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let mut parts = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        let value = match report.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted(),
        report.failed(),
        parts.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("em-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("em-perfbench: {} failed: {e}", args.workload);
            std::process::exit(2);
        }
    };
    eprintln!("ledger ({}):", args.workload);
    for p in &report.phases {
        eprintln!(
            "  {:<24} attempted {:>8}  failed {:>4}",
            p.name, p.attempted, p.failed
        );
    }
    eprintln!("checks:");
    for (name, ok, detail) in &report.checks {
        eprintln!("  [{}] {name}: {detail}", if *ok { "ok" } else { "FAIL" });
    }
    eprintln!("metrics:");
    for (name, value) in &report.metrics {
        eprintln!("  {name} = {value}");
    }
    match result_json(&report, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("em-perfbench: {e}");
            std::process::exit(2);
        }
    }
    if !report.correct() {
        std::process::exit(1);
    }
}
