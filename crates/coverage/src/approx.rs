//! Approximate-decomposition Haar scores — the paper's Algorithm 1.
//!
//! A cheaper (shorter) ansatz may approximate a target unitary with some
//! decomposition infidelity; the approximation is worth taking when the
//! fidelity lost to the approximation is smaller than the fidelity gained by
//! running fewer noisy basis gates. Algorithm 1 Monte-Carlo-samples Haar
//! targets and, for each, tries every cheaper coverage level, accepting the
//! cheapest one whose *total* fidelity (decomposition × circuit) beats the
//! exact decomposition's circuit fidelity.
//!
//! The numerical optimizer is injected as a callback so this crate does not
//! depend on `mirage-synth` (which already depends on this crate). The
//! callback answers: "what decomposition fidelity can a depth-`k` ansatz
//! reach for this target?"

use crate::haar::FidelityModel;
use crate::set::CoverageSet;
use mirage_gates::haar_2q;
use mirage_math::{Mat4, Rng};
use mirage_weyl::coords::coords_of;

/// Callback estimating the decomposition fidelity achievable by a depth-`k`
/// ansatz of the set's basis gate for the given target. `None` means "did
/// not converge / not attempted".
pub type DecompOracle<'a> = dyn Fn(&Mat4, usize) -> Option<f64> + 'a;

/// Outcome of one Algorithm-1 run.
#[derive(Debug, Clone)]
pub struct ApproxScore {
    /// Average accepted cost (the approximate Haar score).
    pub score: f64,
    /// Average total fidelity of the accepted decompositions.
    pub avg_fidelity: f64,
    /// Running mean of the cost after each iteration (paper Fig. 5's
    /// convergence trace).
    pub trace: Vec<f64>,
    /// Fraction of samples where a cheaper approximate level was accepted.
    pub approx_accept_rate: f64,
}

/// Paper Algorithm 1: Monte Carlo Haar score with approximate
/// decomposition.
///
/// For each Haar sample: find the exact cost from the coverage set, set the
/// fidelity threshold to the exact decomposition's circuit fidelity, then
/// try every cheaper level through `oracle`; accept the cheapest level whose
/// total fidelity exceeds the threshold.
pub fn approx_gate_costs(
    set: &CoverageSet,
    model: &FidelityModel,
    n: usize,
    seed: u64,
    oracle: &DecompOracle<'_>,
) -> ApproxScore {
    let mut rng = Rng::new(seed);
    let mut total_cost = 0.0;
    let mut total_fid = 0.0;
    let mut accepted = 0usize;
    let mut trace = Vec::with_capacity(n);

    for i in 0..n {
        let target = haar_2q(&mut rng);
        let w = coords_of(&target);
        let exact_k = set.min_k(&w).unwrap_or(set.max_level().k + 1);
        let exact_cost = exact_k as f64 * set.basis.duration;
        let threshold = model.circuit_fidelity(exact_cost);

        let mut best_cost = exact_cost;
        let mut best_fid = threshold;
        // Try cheaper levels, cheapest first, so the first acceptance wins.
        for k in 1..exact_k {
            let cost = k as f64 * set.basis.duration;
            if let Some(decomp_fid) = oracle(&target, k) {
                let total = decomp_fid * model.circuit_fidelity(cost);
                if total > threshold {
                    best_cost = cost;
                    best_fid = total;
                    accepted += 1;
                    break;
                }
            }
        }

        total_cost += best_cost;
        total_fid += best_fid;
        trace.push(total_cost / (i + 1) as f64);
    }

    ApproxScore {
        score: total_cost / n as f64,
        avg_fidelity: total_fid / n as f64,
        trace,
        approx_accept_rate: accepted as f64 / n as f64,
    }
}

/// A cheap geometric stand-in for a numerical optimizer: estimates the
/// decomposition fidelity of a depth-`k` ansatz as a function of the
/// Euclidean distance from the target's coordinates to the level's region.
///
/// Near the region the infidelity of the best approximation grows
/// quadratically in the chamber distance (both are Riemannian metrics around
/// the optimum), so `F ≈ 1 − β·d²` with `β` fit offline against the real
/// optimizer (`mirage-synth` provides the real one; benches use it).
pub fn distance_oracle<'a>(
    set: &'a CoverageSet,
    beta: f64,
) -> impl Fn(&Mat4, usize) -> Option<f64> + 'a {
    move |target: &Mat4, k: usize| {
        let w = coords_of(target);
        let d = set.level_distance(k, &w)?;
        Some((1.0 - beta * d * d).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::{BasisGate, CoverageOptions, CoverageSet};

    fn small_set(mirrors: bool) -> CoverageSet {
        let opts = CoverageOptions {
            max_k: 3,
            samples_per_k: 900,
            inflation: 0.012,
            mirrors,
            seed: 31,
        };
        CoverageSet::build(BasisGate::iswap_root(2), &opts)
    }

    #[test]
    fn rejecting_oracle_reproduces_exact_score() {
        let set = small_set(false);
        let model = FidelityModel::paper_default();
        let never = |_: &Mat4, _: usize| -> Option<f64> { None };
        let a = approx_gate_costs(&set, &model, 1500, 4, &never);
        let exact = crate::haar::haar_score(&set, &model, 1500, 4);
        assert!(
            (a.score - exact.score).abs() < 1e-9,
            "{} vs {}",
            a.score,
            exact.score
        );
        assert_eq!(a.approx_accept_rate, 0.0);
    }

    #[test]
    fn perfect_oracle_collapses_to_k1() {
        // An oracle claiming perfect fidelity at every depth accepts k=1
        // always (total fidelity at k=1 beats any deeper threshold).
        let set = small_set(false);
        let model = FidelityModel::paper_default();
        let always = |_: &Mat4, _: usize| -> Option<f64> { Some(1.0) };
        let a = approx_gate_costs(&set, &model, 500, 5, &always);
        assert!((a.score - 0.5).abs() < 1e-9, "score = {}", a.score);
        assert!(a.approx_accept_rate > 0.99);
    }

    #[test]
    fn distance_oracle_improves_score_but_not_below_k1() {
        let set = small_set(false);
        let model = FidelityModel::paper_default();
        let oracle = distance_oracle(&set, 12.0);
        let a = approx_gate_costs(&set, &model, 1500, 6, &oracle);
        let exact = crate::haar::haar_score(&set, &model, 1500, 6);
        assert!(a.score <= exact.score + 1e-12);
        assert!(a.score >= 0.5);
        // Average fidelity should not degrade (acceptance requires beating
        // the exact threshold).
        assert!(a.avg_fidelity >= exact.avg_fidelity - 1e-9);
    }

    #[test]
    fn trace_is_running_mean() {
        let set = small_set(false);
        let model = FidelityModel::paper_default();
        let never = |_: &Mat4, _: usize| -> Option<f64> { None };
        let a = approx_gate_costs(&set, &model, 50, 7, &never);
        assert_eq!(a.trace.len(), 50);
        let last = *a.trace.last().unwrap();
        assert!((last - a.score).abs() < 1e-12);
    }

    #[test]
    fn trace_converges() {
        let set = small_set(false);
        let model = FidelityModel::paper_default();
        let oracle = distance_oracle(&set, 12.0);
        let a = approx_gate_costs(&set, &model, 2000, 8, &oracle);
        // Late-trace wobble should be small.
        let tail: Vec<f64> = a.trace[1500..].to_vec();
        let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min < 0.02, "trace still moving: [{min}, {max}]");
    }
}
