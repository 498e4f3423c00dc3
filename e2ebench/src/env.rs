//! Environment and roofline fingerprint recorded with every run: kernels
//! and blocking, the fixed model constants, the host, a DRAM stream
//! bandwidth, and the seed and source revision.

use fmm_core::json::Value;
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::ArchParams;
use std::collections::BTreeMap;
use std::time::Instant;

/// The model constants every engine of the benchmark routes with, so that
/// routing never depends on a host calibration.
pub fn arch() -> ArchParams {
    ArchParams::paper_machine()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Last-level cache size in bytes, from sysfs; 0 when unknown.
pub fn llc_bytes() -> usize {
    let mut best = 0;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else { break };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().map_or(0, |v| v << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().map_or(0, |v| v << 20)
        } else {
            size.parse().unwrap_or(0)
        };
        best = best.max(bytes);
    }
    best
}

/// The source revision, read from `.git` in the working directory when
/// there is one.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// DRAM bandwidth of `a[i] += s * b[i]` over two arrays whose combined
/// size is at least four times the LLC (and at least 420 MiB), counting
/// three 8-byte transfers per element. Median of five passes, in GB/s.
/// Returns `(gb_per_s, combined_array_bytes)`.
pub fn stream_bandwidth(llc: usize) -> (f64, usize) {
    let total = (4 * llc).max(420 << 20);
    let len = total / 2 / 8;
    let mut a = vec![1.0f64; len];
    let b = vec![2.0f64; len];
    let mut rates = Vec::new();
    for pass in 0..5 {
        let s = 1.0 + pass as f64 * 1e-3;
        let t = Instant::now();
        for (x, y) in a.iter_mut().zip(&b) {
            *x += s * *y;
        }
        std::hint::black_box(&mut a);
        rates.push(3.0 * 8.0 * len as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    (crate::util::median(&rates), 2 * len * 8)
}

fn kernel<T: GemmScalar>() -> Value {
    let mut m = BTreeMap::new();
    m.insert("name".into(), Value::String(T::micro_kernel_name().into()));
    m.insert("mr".into(), Value::Int(T::MR as i64));
    m.insert("nr".into(), Value::Int(T::NR as i64));
    Value::Object(m)
}

/// The fingerprint object of one run.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let mut m = BTreeMap::new();
    let int = |v: usize| Value::Int(v as i64);
    m.insert("workload".into(), Value::String(workload.into()));
    m.insert("seed".into(), Value::Int(seed as i64));
    m.insert("seconds".into(), Value::Int(seconds as i64));
    m.insert("trace".into(), Value::Int(trace as i64));
    m.insert("git".into(), Value::String(git_revision()));
    m.insert("kernel_f64".into(), kernel::<f64>());
    m.insert("kernel_f32".into(), kernel::<f32>());
    let p = BlockingParams::default();
    let mut blocking = BTreeMap::new();
    for (name, v) in [("mr", p.mr), ("nr", p.nr), ("kc", p.kc), ("mc", p.mc), ("nc", p.nc)] {
        blocking.insert(name.into(), int(v));
    }
    m.insert("blocking".into(), Value::Object(blocking));
    let a = arch();
    let mut fixed = BTreeMap::new();
    fixed.insert("source".into(), Value::String("ArchParams::paper_machine".into()));
    fixed.insert("tau_a".into(), Value::Number(a.tau_a));
    fixed.insert("tau_b".into(), Value::Number(a.tau_b));
    fixed.insert("lambda".into(), Value::Number(a.lambda));
    fixed.insert("mc".into(), int(a.mc));
    fixed.insert("kc".into(), int(a.kc));
    fixed.insert("nc".into(), int(a.nc));
    m.insert("arch".into(), Value::Object(fixed));
    m.insert("nproc".into(), int(nproc()));
    let llc = llc_bytes();
    m.insert("llc_bytes".into(), int(llc));
    let (gbs, bytes) = stream_bandwidth(llc);
    let mut stream = BTreeMap::new();
    stream.insert("kernel".into(), Value::String("a[i] += s*b[i], 24 B/element".into()));
    stream.insert("array_bytes_total".into(), int(bytes));
    stream.insert("gb_per_s".into(), Value::Number(gbs));
    m.insert("stream".into(), Value::Object(stream));
    Value::Object(m)
}
