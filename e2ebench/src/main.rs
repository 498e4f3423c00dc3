//! `e2ebench` — the repository's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <square-warm|shapes-cold|serve-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every engine routes with `Routing::Model` over the fixed
//! `ArchParams::paper_machine()`, and the daemon runs untuned, so no run
//! reads or writes a tune store. Each run checks every timed result,
//! prints a human summary, writes a JSON report (and, when traced, its
//! spans) under `out/` in this package, and ends its standard output with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones. The exit code is nonzero when any result was
//! wrong.

mod compute;
mod env;
mod layers;
mod serve;
mod trace;
mod util;

use fmm_core::json::{self, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// One named, measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    /// Errors, `Busy` refusals and wrong results.
    pub failed: u64,
    /// Wrong results alone.
    pub wrong: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub report: BTreeMap<String, Value>,
}

const WORKLOADS: [&str; 3] = ["square-warm", "shapes-cold", "serve-open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    util::pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    trace::set_enabled(args.trace);
    let run = match args.workload.as_str() {
        "square-warm" => compute::square_warm,
        "shapes-cold" => compute::shapes_cold,
        _ => serve::serve_open,
    };
    let steal0 = util::cpu_steal_ticks();
    let mut outcome = run(args.seed, args.seconds, args.trace);
    let steal1 = util::cpu_steal_ticks();
    trace::set_enabled(false);
    let spans = trace::take();

    let metrics = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    let mut report = std::mem::take(&mut outcome.report);
    let mut fingerprint = env::fingerprint(&args.workload, args.seed, args.seconds, args.trace);
    if let Value::Object(fields) = &mut fingerprint {
        let steal = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
        fields.insert("host_steal_frac".into(), Value::Number(steal));
    }
    report.insert("env".into(), fingerprint);
    report.insert("metrics".into(), metrics_json(metrics));
    report.insert("self_times_ms".into(), self_times_json(&spans));
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, args.trace as u8);
    let written = write_report(&stem, &Value::Object(report.clone()), &spans);

    for (name, value) in [("decisions", report.get("decisions")), ("env", report.get("env"))] {
        if let Some(v) = value {
            println!("{name}: {}", json::to_string_pretty(v));
        }
    }
    for m in metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    match written {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("e2ebench: could not write the report: {e}"),
    }
    println!("{}", result_line(&outcome, metrics));
    if outcome.wrong > 0 {
        eprintln!("e2ebench: {} result(s) failed the check", outcome.wrong);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The final line of standard output.
fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.wrong == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit `f64` carries (non-finite values,
/// which JSON cannot hold, print as 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut row = BTreeMap::new();
                row.insert(
                    "value".to_string(),
                    Value::Number(if m.value.is_finite() { m.value } else { 0.0 }),
                );
                row.insert("unit".to_string(), Value::String(m.unit.into()));
                (m.name.to_string(), Value::Object(row))
            })
            .collect(),
    )
}

fn self_times_json(spans: &[trace::Span]) -> Value {
    Value::Object(
        trace::self_times(spans)
            .into_iter()
            .map(|(name, (count, total, own))| {
                let mut row = BTreeMap::new();
                row.insert("count".to_string(), Value::Int(count as i64));
                row.insert("total_ms".to_string(), Value::Number(total));
                row.insert("self_ms".to_string(), Value::Number(own));
                (name.to_string(), Value::Object(row))
            })
            .collect(),
    )
}

/// Write `<stem>.json` and, when there are spans, `<stem>.spans.jsonl`
/// under this package's `out/` directory.
fn write_report(stem: &str, report: &Value, spans: &[trace::Span]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, json::to_string_pretty(report) + "\n")?;
    if !spans.is_empty() {
        let lines: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), lines.join("\n") + "\n")?;
    }
    Ok(path)
}
