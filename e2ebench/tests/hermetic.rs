//! The benchmark depends on no ambient calibration and writes no tune
//! store: short runs with `HOME` and `FMM_TUNE_STORE` pointed at an empty
//! directory must leave it empty and end with a correct result line.

use std::path::PathBuf;
use std::process::Command;

fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e2ebench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the temp dir");
    dir
}

fn run_hermetic(workload: &str) {
    let dir = empty_dir(workload);
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"])
        .env("HOME", &dir)
        .env("FMM_TUNE_STORE", dir.join("tune.json"))
        .env_remove("FMM_TUNE_CALIBRATE")
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "result line: {last}");
    assert!(last.contains("\"setup_s\": {\"value\": "), "result line: {last}");
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read the temp dir").collect();
    assert!(left.is_empty(), "{workload} wrote into HOME or the tune store: {left:?}");
    std::fs::remove_dir_all(&dir).expect("remove the temp dir");
}

#[test]
fn serve_open_touches_no_tune_store() {
    run_hermetic("serve-open");
}

#[test]
fn square_warm_touches_no_tune_store() {
    run_hermetic("square-warm");
}

#[test]
fn bad_arguments_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
