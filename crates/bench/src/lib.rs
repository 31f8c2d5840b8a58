//! Shared harness for the gate binaries under `src/bin/`: each holds the
//! workspace to its checked-in `BENCH_*.json` numbers and pins. `paper`
//! records the paper's evaluation; the others measure the system
//! (README.md, "Experiments", has the index).
//!
//! ---
//! **Owns:** [`coverage_for`], [`geo_mean`], [`pct_improvement`],
//! [`print_table`], the gate harness in [`report`] (arguments, pins,
//! `BENCH_*.json` writer, verdict, `best_ms` timing), and the binaries.
//! **Paper:** §§V–VI — Tables I–II and Figs. 8–12 in `paper`, Fig. 13b's
//! runtime axis in `routing_runtime`.

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
