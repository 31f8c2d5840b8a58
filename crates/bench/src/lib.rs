//! Shared harness utilities for the experiment-regeneration binaries.
//!
//! Each figure/table binary under `src/bin/` regenerates one table or
//! figure of the paper (README.md, "Experiments", has the index); the gate
//! binaries (`routing_runtime`, `transpile_runtime`, `coverage_runtime`,
//! `serve_net`, `layout_strategies`) hold the workspace to its checked-in
//! `BENCH_*.json` numbers and pinned fingerprints. This library holds the
//! pieces they share: full-quality coverage-set construction, the
//! benchmark-suite runner, plain-text table rendering, and the gate
//! harness.
//!
//! ---
//! **Owns:** [`coverage_for`], [`eval_options`], [`run_one`]/[`SuiteRow`],
//! the gate harness in [`report`] (arguments, pins, `BENCH_*.json`
//! writer, verdict, `best_ms` timing), and the `src/bin/` binaries.
//! **Paper:** §§V–VI experiments — Figs. 3–13, Tables I–III, plus the
//! calibration-skew sweep (`calibration_skew`) that extends Table III to
//! noisy heterogeneous devices.

use mirage_circuit::Circuit;
use mirage_core::{transpile, RouterKind, Target, TranspileOptions};
use mirage_coverage::set::{BasisGate, CoverageOptions, CoverageSet};

pub mod report;

/// Build a full-quality coverage set for `iSWAP^(1/n)`.
pub fn coverage_for(n: u32, mirrors: bool, max_k: usize) -> CoverageSet {
    let opts = CoverageOptions {
        max_k,
        samples_per_k: 4000,
        inflation: 0.01,
        mirrors,
        seed: 0xBE9C4 + u64::from(n),
    };
    CoverageSet::build(BasisGate::iswap_root(n), &opts)
}

/// Evaluation-scale trial options: smaller than the paper's 20×4×20 grid
/// (which exists to squeeze the last percent out of a Python transpiler)
/// but large enough that the relative results are stable.
pub fn eval_options(router: RouterKind, seed: u64) -> TranspileOptions {
    let mut opts = TranspileOptions::quick(router, seed);
    opts.trials.layout_trials = 8;
    opts.trials.fwd_bwd_iters = 3;
    opts.trials.routing_trials = 8;
    opts.trials.parallel = true;
    opts
}

/// One row of a suite comparison.
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// Benchmark name.
    pub name: String,
    /// Depth estimate (duration units).
    pub depth: f64,
    /// Total two-qubit gate cost.
    pub gate_cost: f64,
    /// SWAPs inserted.
    pub swaps: usize,
    /// Mirror acceptance rate.
    pub mirror_rate: f64,
}

/// Transpile one circuit onto `target` and summarize.
pub fn run_one(
    name: &str,
    circuit: &Circuit,
    target: &Target,
    router: RouterKind,
    seed: u64,
) -> SuiteRow {
    let opts = eval_options(router, seed);
    let out = transpile(circuit, target, &opts).expect("transpilation succeeds");
    SuiteRow {
        name: name.to_owned(),
        depth: out.metrics.depth_estimate,
        gate_cost: out.metrics.total_gate_cost,
        swaps: out.metrics.swaps_inserted,
        mirror_rate: out.metrics.mirror_rate,
    }
}

/// Geometric mean of positive values.
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Percent improvement of `new` over `base` (positive = reduction).
pub fn pct_improvement(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        100.0 * (base - new) / base
    }
}

/// Render a plain-text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("--")
    );
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn pct_improvement_sign() {
        assert!((pct_improvement(10.0, 7.0) - 30.0).abs() < 1e-12);
        assert!(pct_improvement(10.0, 12.0) < 0.0);
        assert_eq!(pct_improvement(0.0, 5.0), 0.0);
    }
}
