//! `fmm_bench` — operate on saved benchmark reports.
//!
//! ```sh
//! fmm_bench compare OLD.json NEW.json [--tolerance 0.7] [--metric requests_per_sec]
//! ```
//!
//! `compare` is the CI regression gate between two runs of the same
//! report-producing binary (`serve_smoke`, `engine_smoke`, the fig
//! harnesses — anything emitting the shared `report` schema). Rows are
//! matched by their descriptive fields (`mode`, `size`, `dtype`, ...),
//! the chosen metric (default `requests_per_sec`, falling back to
//! `gflops` when a row has no request rate) is ratioed new/old, and any
//! matched row below `--tolerance` fails the run with exit 1. The floor
//! is deliberately lenient: it exists to catch structural regressions —
//! e.g. audit instrumentation leaking onto the hot path — not run-to-run
//! noise on shared CI hardware.

use fmm_core::json::{self, Value};
use std::collections::BTreeMap;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => cmd_compare(&argv[1..]),
        _ => {
            eprintln!("usage: fmm_bench compare OLD.json NEW.json [--tolerance 0.7] [--metric M]");
            std::process::exit(2);
        }
    }
}

fn cmd_compare(argv: &[String]) {
    let mut paths = Vec::new();
    let mut tolerance = 0.7f64;
    let mut metric = "requests_per_sec".to_string();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--tolerance" => {
                tolerance = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fatal_usage("--tolerance takes a number"));
                i += 2;
            }
            "--metric" => {
                metric = argv
                    .get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| fatal_usage("--metric takes a field name"));
                i += 2;
            }
            flag if flag.starts_with("--") => fatal_usage(&format!("unknown flag {flag}")),
            path => {
                paths.push(path.to_string());
                i += 1;
            }
        }
    }
    if paths.len() != 2 {
        fatal_usage("compare takes exactly two report paths");
    }
    let old_rows = load_rows(&paths[0]);
    let new_rows = load_rows(&paths[1]);

    let mut compared = 0usize;
    let mut failures = Vec::new();
    println!(
        "{:<40} {:>12} {:>12} {:>7}  metric",
        "row",
        format!("old ({})", short(&paths[0])),
        format!("new ({})", short(&paths[1])),
        "ratio"
    );
    for (identity, new_row) in &new_rows {
        let Some(old_row) = old_rows.get(identity) else {
            println!("{identity:<40} {:>12} {:>12}", "-", "(new row)");
            continue;
        };
        // Prefer the requested metric; fall back to gflops so the same
        // invocation covers throughput reports and compute reports.
        let Some((name, old_v, new_v)) = [metric.as_str(), "gflops"]
            .iter()
            .find_map(|key| Some((*key, metric_of(old_row, key)?, metric_of(new_row, key)?)))
        else {
            println!("{identity:<40} {:>12} {:>12}  (no comparable metric)", "-", "-");
            continue;
        };
        let ratio = if old_v > 0.0 { new_v / old_v } else { f64::INFINITY };
        compared += 1;
        println!("{identity:<40} {old_v:>12.2} {new_v:>12.2} {ratio:>6.2}x  {name}");
        if ratio < tolerance {
            failures.push(format!(
                "{identity}: {name} regressed to {ratio:.2}x ({new_v:.2} vs {old_v:.2}, \
                 floor {tolerance:.2})"
            ));
        }
    }
    if compared == 0 {
        eprintln!("fmm_bench compare: no rows in common between the two reports");
        std::process::exit(1);
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
    println!("{compared} rows compared, all within {tolerance:.2}x tolerance");
}

fn fatal_usage(message: &str) -> ! {
    eprintln!("fmm_bench compare: {message}");
    std::process::exit(2);
}

fn short(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Parse a report file into rows keyed by their descriptive identity:
/// every string field plus small integer descriptors like `size`, joined
/// in field order. Rows whose identity collides keep the last one — the
/// schema never emits duplicate descriptor sets.
fn load_rows(path: &str) -> BTreeMap<String, BTreeMap<String, Value>> {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("fmm_bench compare: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let report = json::parse(&body).unwrap_or_else(|e| {
        eprintln!("fmm_bench compare: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let Value::Object(root) = report else {
        eprintln!("fmm_bench compare: {path} is not a report object");
        std::process::exit(1);
    };
    let Some(Value::Array(rows)) = root.get("rows") else {
        eprintln!("fmm_bench compare: {path} has no rows array");
        std::process::exit(1);
    };
    rows.iter()
        .filter_map(|row| {
            let Value::Object(row) = row else { return None };
            Some((identity_of(row), row.clone()))
        })
        .collect()
}

/// Descriptive identity of a row: its string fields plus the integer
/// descriptors that distinguish sweep points, in a fixed field order.
fn identity_of(row: &BTreeMap<String, Value>) -> String {
    const INT_DESCRIPTORS: [&str; 5] = ["size", "levels", "threads", "workers", "pipeline"];
    let mut parts = Vec::new();
    for (key, value) in row {
        match value {
            Value::String(s) => parts.push(format!("{key}={s}")),
            Value::Int(v) if INT_DESCRIPTORS.contains(&key.as_str()) => {
                parts.push(format!("{key}={v}"))
            }
            _ => {}
        }
    }
    if parts.is_empty() {
        "(row)".to_string()
    } else {
        parts.join(" ")
    }
}

fn metric_of(row: &BTreeMap<String, Value>, key: &str) -> Option<f64> {
    match row.get(key) {
        Some(Value::Number(v)) => Some(*v),
        Some(Value::Int(v)) => Some(*v as f64),
        _ => None,
    }
}
