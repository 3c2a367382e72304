//! End-to-end and per-layer benchmark of HILP's user-facing workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig7|lowpower|exact-energy|hilpd> --seed N --seconds S --trace <0|1> \
//!     [--threads N] [--step N] [--corrupt]
//! ```
//!
//! Run from the repository root (it reads `BENCH_sweep.json`). The last
//! line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). The line above it carries the run's context (seed,
//! threads, core count, commit) and each metric's direction. See
//! `perfbench/README.md` for the workloads and metrics.

mod common;
mod hilpd;
mod json;
mod layers;
mod metrics;
mod reference;
mod sweeps;
mod trace;

use std::process::ExitCode;

use common::{Opts, Outcome};
use metrics::{Ledger, Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["fig7", "lowpower", "exact-energy", "hilpd"];

const USAGE: &str = "usage: perfbench --workload <fig7|lowpower|exact-energy|hilpd> --seed N \
                     --seconds S --trace <0|1> [--threads N] [--step N] [--corrupt]";

fn parse_args(available: usize) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: available.min(2),
        step: 1,
        corrupt: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt" {
            opts.corrupt = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--threads" => opts.threads = value.parse().map_err(|e| bad(&e))?,
            "--step" => opts.step = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) || opts.step == 0 || opts.threads == 0 {
        return Err("--seconds, --step and --threads must be positive".into());
    }
    if opts.threads > available {
        return Err(format!(
            "refusing to run: {} threads requested but only {available} cores are available",
            opts.threads
        ));
    }
    Ok(opts)
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Trace sanity and attribution for a traced run: flags spans whose
/// self time is negative, in the benchmark's own tracer and in the
/// program's telemetry `journal`, reports the share of the traced window
/// no layer span accounts for, writes the spans out, and returns the self
/// time per thread and layer of both for the context line.
pub fn finish_trace(
    tracer: &Tracer,
    journal: &hilp_telemetry::Journal,
    m: &mut Metrics,
    ledger: &mut Ledger,
    workload: &str,
) -> Vec<(&'static str, String)> {
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let negative = selfs.iter().filter(|&&s| s < 0).count();
    ledger.op(negative == 0, || {
        format!("{negative} benchmark spans have negative self time")
    });
    let journal_selfs = trace::journal_self_times(journal);
    let journal_negative = journal_selfs.iter().filter(|s| s.self_us < 0).count();
    ledger.op(journal_negative == 0, || {
        format!("{journal_negative} telemetry journal spans have negative self time")
    });
    ledger.op(!journal_selfs.is_empty(), || {
        "the telemetry journal recorded no spans".into()
    });
    let mut journal_by_thread: std::collections::BTreeMap<(u32, &str), f64> = Default::default();
    for s in &journal_selfs {
        let name = s.name.as_str();
        let layer = name.split('.').next().unwrap_or(name);
        *journal_by_thread.entry((s.thread, layer)).or_insert(0.0) += s.self_us as f64 * 1e-6;
    }
    let window: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum();
    let by_layer = trace::self_by_thread_layer(&spans);
    let unattributed: f64 = by_layer
        .iter()
        .filter(|((_, layer), _)| layer == "bench")
        .map(|(_, s)| s)
        .sum();
    m.set(
        "trace.negative_self_spans",
        (negative + journal_negative) as f64,
    );
    m.set(
        "trace.unattributed_frac",
        metrics::ratio(unattributed, window),
    );
    let path = std::path::PathBuf::from(format!(".perfbench/trace-{workload}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let dropped: u64 = journal
        .records
        .iter()
        .map(|r| match r {
            hilp_telemetry::Record::Dropped { count } => *count,
            _ => 0,
        })
        .sum();
    vec![
        ("spans", spans.len().to_string()),
        (
            "self_time_by_thread",
            self_time_rows(by_layer.iter().map(|((t, l), s)| (*t, l.as_str(), *s))),
        ),
        ("journal_spans", journal_selfs.len().to_string()),
        ("journal_dropped_events", dropped.to_string()),
        (
            "journal_self_time_by_thread",
            self_time_rows(
                journal_by_thread
                    .iter()
                    .map(|((t, l), s)| (u64::from(*t), *l, *s)),
            ),
        ),
    ]
}

/// A JSON array of `{thread, layer, self_s}` rows.
fn self_time_rows<'a>(rows: impl Iterator<Item = (u64, &'a str, f64)>) -> String {
    let rows: Vec<String> = rows
        .map(|(thread, layer, s)| {
            format!(
                "{{\"thread\": {thread}, \"layer\": \"{layer}\", \"self_s\": {}}}",
                json::num(s)
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn main() -> ExitCode {
    let available = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let parallelism_fallback = available == 0;
    let opts = match parse_args(available.max(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Outcome, String> = match opts.workload.as_str() {
        "fig7" => sweeps::run(sweeps::Kind::Fig7, &opts),
        "lowpower" => sweeps::run(sweeps::Kind::LowPower, &opts),
        "exact-energy" => sweeps::run(sweeps::Kind::ExactEnergy, &opts),
        _ => hilpd::run(&opts),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let specs = if opts.trace { PER_LAYER } else { END_TO_END };
    for note in outcome.ledger.notes() {
        eprintln!("perfbench: check failed: {note}");
    }
    let split = hilp_dse::ThreadBudget::split(opts.threads, common::space(opts.step).len());
    let mut context = format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"step\": {}, \"corrupt\": {}, \"available_parallelism\": {available}, \
         \"parallelism_fallback\": {parallelism_fallback}, \"threads\": {}, \
         \"sweep_split\": {{\"outer\": {}, \"inner\": {}}}, \"git_commit\": \"{}\"",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.step,
        opts.corrupt,
        opts.threads,
        split.outer,
        split.inner,
        git_commit(),
    );
    for (k, v) in &outcome.context {
        context.push_str(&format!(", \"{k}\": {v}"));
    }
    println!(
        "{context}}}, \"metrics\": {}}}",
        outcome.metrics.render_detail(specs)
    );
    let ledger = &outcome.ledger;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed,
        outcome.metrics.render(specs)
    );
    ExitCode::SUCCESS
}
