//! `mirage-cli` error paths: a bad argument ends in `error: …` plus the
//! usage text and exit code 1, never a panic (exit code 101).

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mirage-cli"))
        .args(args)
        .output()
        .expect("mirage-cli runs")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bad_heavy_hex_distance_is_a_usage_error() {
    for topo in ["heavy-hex:4", "heavy-hex:0", "heavy-hex:1"] {
        let needle = "heavy-hex needs an odd distance >= 3";
        assert_usage_error(&["batch", "qft:4", "--topo", topo], needle);
        assert_usage_error(&["gen-cal", "--topo", topo], needle);
        assert_usage_error(
            &[
                "serve",
                "--topo",
                topo,
                "--listen",
                "127.0.0.1:0",
                "--conns",
                "0",
            ],
            needle,
        );
    }
}

#[test]
fn zero_trials_fail_the_job_with_a_typed_error() {
    let out = cli(&["batch", "qft:4", "--topo", "line:4", "--trials", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stdout.contains("layout_trials is 0"), "{stdout}");
    assert!(stderr.contains("error: 1 job(s) failed"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
